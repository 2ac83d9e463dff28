"""The references the tests check the program against, and the systems they
run them on: every orbit type Z^2 / L of small index (`lattices`) and every
small union of them (`lattice_unions`).

Every reference here is an older route, a literal loop or a closed form: a
walk one step at a time, a brute-force search, a listed measure, a Fourier
limit.  They are the spec, and they
stay independent of what they check: `tests/test_hygiene.py` holds the
exact list of names this module imports from ergocubes, and forbids each
reference to reach the program name it checks.
"""

from fractions import Fraction
from itertools import chain, combinations_with_replacement, product, starmap
from random import Random
from typing import NamedTuple, Tuple

import mpmath

from ergocubes.averaging import check_schedule, cubic_average, windowed_sn
from ergocubes.core import Observable, PreconditionError
from ergocubes.finite import (
    FiniteMPS,
    FreenessResult,
    ergodic_decomposition,
    is_ergodic,
    partition_s,
    partition_t,
)
from ergocubes.joinings import (
    S_STAR,
    T_STAR,
    ComponentSummary,
    ExtensionConstructionError,
    MagicExtension,
    cond_exp,
    invariant_w,
    is_magic,
    rel_indep_square,
)

F = Fraction


def literal_cycle(perm, x):
    """The cycle of `perm` through x, walked one step at a time from x."""
    cycle, y = [x], perm[x]
    while y != x:
        cycle.append(y)
        y = perm[y]
    return cycle


def literal_cycle_length(perm, x):
    return len(literal_cycle(perm, x))


def literal_stabilizer(sys, x):
    """(p, q, r) with {(i, j) : S^i T^j x = x} = {(i, j) : p | i, j = (i/p) q
    mod r}, walked one step at a time: r is the length of the T-cycle x, T x,
    ..., p the least i >= 1 with S^i x on it, and S^p x = T^-q x."""
    cycle = literal_cycle(sys.T, x)
    p, y = 1, sys.S[x]
    while y not in cycle:
        p, y = p + 1, sys.S[y]
    return p, -cycle.index(y) % len(cycle), len(cycle)


def literal_apply(sys, i, j, x):
    """S^i T^j x, walked one S, S^-1, T or T^-1 step at a time."""
    for perm, e in ((sys.S, i), (sys.T, j)):
        step = perm if e >= 0 else {y: p for p, y in enumerate(perm)}
        for _ in range(abs(e)):
            x = step[x]
    return x


def literal_birkhoff(sys, f, x, gens, N):
    """The Birkhoff box sum, each point walked one step at a time."""
    total = F(0)
    for ks in product(range(N), repeat=len(gens)):
        y = x
        for g, k in zip(gens, ks):
            y = literal_apply(sys, k * g.i, k * g.j, y)
        total += f.values[y]
    return total / N ** len(gens)


def literal_cubic(sys, f1, f2, f3, x, N):
    """The cubic box sum (1/N^2) sum_{i,j<N} f1(S^i x) f2(T^j x) f3(S^i T^j x),
    each point walked one step at a time."""
    total = F(0)
    for i in range(N):
        for j in range(N):
            total += (
                f1.values[literal_apply(sys, i, 0, x)]
                * f2.values[literal_apply(sys, 0, j, x)]
                * f3.values[literal_apply(sys, i, j, x)]
            )
    return total / N**2


def literal_box_hits(step, start, d, N):
    """Every exponent tuple of [0, N)^d walked one step at a time."""
    hits = {}
    for exponents in product(range(N), repeat=d):
        p = start
        for t, e in enumerate(exponents):
            for _ in range(e):
                p = step(t, p)
        hits[p] = hits.get(p, 0) + 1
    return hits


def cycle_patterns(m):
    """The quadruples (x, x+i, x+j, x+i+j) mod m: every cube of the m-cycle
    with S = T = +1, listed by hand."""
    return {(x, (x + i) % m, (x + j) % m, (x + i + j) % m) for x, i, j in product(range(m), repeat=3)}


def autocorrelation_fourth_power(f):
    """|||f|||^4 on the m-cycle with S = T = +1, m = f.n.  The quadruple
    measure is uniform on the patterns (x, x+i, x+j, x+i+j), so
      |||f|||^4 = (1/m^3) sum_{x,i,j} f(x) f(x+i) f(x+j) f(x+i+j)
                = (1/m)  sum_i (sum_x f(x) f(x+i) / m)^2,
    a pure autocorrelation identity, independent of the joining machinery."""
    m, v = f.n, f.values
    auto = [sum(v[x] * v[(x + d) % m] for x in range(m)) / F(m) for d in range(m)]
    return sum((a * a for a in auto), F(0)) / m


def is_free_brute(sys):
    """Tabulate T's powers and walk S's, over the whole window
    0 <= i < ord(S), 0 <= j < ord(T); returns the least i >= 1, then the
    least j >= 0, with S^i T^j = id."""
    if sys.order_s() == 1:
        return FreenessResult(False, (1, 0))
    if sys.order_t() == 1:
        return FreenessResult(False, (0, 1))
    identity = tuple(range(sys.n))
    # S^i T^j = id  iff  T^j = S^{-i}; index the T-powers once.
    t_powers = {}
    perm = identity
    for j in range(sys.order_t()):
        t_powers.setdefault(perm, j)
        perm = tuple(sys.T[x] for x in perm)
    perm = identity
    s_inv = [0] * sys.n
    for x in range(sys.n):
        s_inv[sys.S[x]] = x
    for i in range(sys.order_s()):
        j = t_powers.get(perm)
        if j is not None and (i, j) != (0, 0):
            return FreenessResult(False, (i, j))
        perm = tuple(s_inv[x] for x in perm)  # now perm = S^{-(i+1)}
    return FreenessResult(True, None)


def closure_orbits(sys):
    """The (T x T)-orbits of supp mu_S by literal closure: the reference for
    `host_measure`'s parametrized orbits."""
    seen, orbits = set(), set()
    for pair in sorted(rel_indep_square(sys).entries):
        orbit = []
        cur = pair
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = (sys.T[cur[0]], sys.T[cur[1]])
        if orbit:
            orbits.add(frozenset(orbit))
    return orbits


def listed_mu_st(sys):
    """mu_{S,T} listed quadruple by quadruple, {p + q: mass}: mu_S(p) mu_S(q) /
    mu_S(C) on C x C for each (T x T)-orbit C of `closure_orbits`, with mu_S
    read off `rel_indep_square`."""
    mu_s = rel_indep_square(sys).entries
    listed = {}
    for orbit in closure_orbits(sys):
        mass = sum(mu_s[p] for p in orbit)
        listed.update({p + q: mu_s[p] * mu_s[q] / mass for p in orbit for q in orbit})
    return listed


def measurable_by_spread(sys):
    """The measurability check by spreading each orbit's Fraction masses over
    W-block products: the reference for `measurability_check`.  The W-block of
    x is its literal S-cycle cut with its literal T-cycle."""
    block_of, w_blocks = {}, []
    for x in range(sys.n):
        if x not in block_of:
            w_blocks.append(sorted(set(literal_cycle(sys.S, x)) & set(literal_cycle(sys.T, x))))
            block_of.update((y, len(w_blocks) - 1) for y in w_blocks[-1])
    w_mass = [sum((sys.weights[x] for x in block), F(0)) for block in w_blocks]
    mu_s = rel_indep_square(sys).entries
    for orbit in closure_orbits(sys):
        spread = {}
        for (a, b) in orbit:
            w_ab = mu_s[(a, b)]
            ba, bb = block_of[a], block_of[b]
            scale = w_ab / (w_mass[ba] * w_mass[bb])
            for x in w_blocks[ba]:
                wx = sys.weights[x] * scale
                for y in w_blocks[bb]:
                    key = (x, y)
                    spread[key] = spread.get(key, F(0)) + wx * sys.weights[y]
        original = {pair: mu_s[pair] for pair in orbit}
        if spread != original:
            return False
    return True


def magic_extension_by_decomposition(sys):
    """The construction by decomposition, the reference for `magic_extension`:
    list supp mu_{S,T}, build the four-fold system under (S*, T*), decompose
    it, and try components by decreasing mass.

    The four-fold measure with the coordinate maps (S*, T*) = (id x S x id x S,
    id x id x T x T) is an extension of the base via the last coordinate;
    decomposing it into components of the (S*, T*) action and selecting a
    component that is magic (and free, whenever the base has nontrivial S and
    T) yields the required system.  Components are tried by decreasing mass,
    ties broken by lexicographically smallest support.
    """
    if not is_ergodic(sys):
        raise PreconditionError("magic_extension requires an ergodic base system")
    mu_st = listed_mu_st(sys)
    quads = sorted(mu_st)
    index = {q: k for k, q in enumerate(quads)}
    weights = [mu_st[q] for q in quads]
    s_perm = [index[tuple(sys.apply(g, x) for g, x in zip(S_STAR, q))] for q in quads]
    t_perm = [index[tuple(sys.apply(g, x) for g, x in zip(T_STAR, q))] for q in quads]
    big = FiniteMPS(weights, s_perm, t_perm)

    identity = tuple(range(sys.n))
    freeness_required = sys.S != identity and sys.T != identity

    components = ergodic_decomposition(big)
    order = sorted(range(len(components)), key=lambda k: (-components[k].mass, components[k].support))
    summaries = [None] * len(components)
    chosen = None
    for k in order:
        comp = components[k]
        if chosen is not None:
            summaries[k] = ComponentSummary(len(comp.support), comp.mass, None, None, False, "not evaluated")
            continue
        sub = comp.subsystem(big)
        magic_report = is_magic(sub)
        free_result = is_free_brute(sub)
        ok = magic_report.is_magic and (free_result.free or not freeness_required)
        if ok:
            chosen = (k, sub)
            summaries[k] = ComponentSummary(len(comp.support), comp.mass, magic_report.is_magic, free_result.free, True, None)
        else:
            reasons = []
            if not magic_report.is_magic:
                reasons.append("not magic")
            if freeness_required and not free_result.free:
                reasons.append(f"not free (witness {free_result.witness})")
            summaries[k] = ComponentSummary(
                len(comp.support), comp.mass, magic_report.is_magic, free_result.free, False, ", ".join(reasons)
            )
    if chosen is None:
        lines = [
            f"component size={s.size} mass={s.mass}: {s.rejection}"
            for s in summaries
            if s is not None
        ]
        raise ExtensionConstructionError(
            "no component is simultaneously magic and free; a valid component "
            "should always exist for an ergodic base -- details: " + "; ".join(lines)
        )
    k, sub = chosen
    comp = components[k]
    comp_quads = tuple(quads[x] for x in comp.support)
    return MagicExtension(
        system=sub,
        quadruples=comp_quads,
        factor=tuple(q[3] for q in comp_quads),
        mass=comp.mass,
        components=tuple(s for s in summaries if s is not None),
    )


def listed_pushforward(hm, m):
    """mu_{S,T} of a product system listed quadruple by quadruple and pushed
    to the factor pairs ((y0, y1), (w0, w2)), product point y m + w holding
    (y, w): the reference for `product_cube_identification`'s measure check."""
    pushed = {}
    for quad, mass in hm.mu_st.entries.items():
        (y0, w0), (y1, _), (_, w2), _ = (divmod(p, m) for p in quad)
        key = ((y0, y1), (w0, w2))
        pushed[key] = pushed.get(key, F(0)) + mass
    return pushed


class TrackRow(NamedTuple):
    N: int
    track_a: Fraction    # cubic average against E(f3 | W)
    track_b: Fraction    # cubic average against f3 - E(f3 | W)
    direct: Fraction     # cubic average against f3
    sn_bound: Fraction   # S_N of the mean-zero part (bounds track_b^4)


class ThreeTracks(NamedTuple):
    limit: Fraction                      # exact limit of the structured track
    rows: Tuple[TrackRow, ...]
    exact_sum: bool                      # track_a + track_b == direct at every N


def three_track_decomposition(sys, f1, f2, f3, x, schedule):
    """The decomposition on three tracks, the reference for the closed-form
    `decompose_and_converge`: the cubic averages against E(f3|W), against
    f3 - E(f3|W) and against f3 at every window, S_N of the mean-zero part,
    and the limit summed over the W-blocks (`ThreeTracks`)."""
    check_schedule(schedule)
    cubic_average(sys, f1, f2, f3, x, max(schedule))  # the point and the observables, before the verdicts
    failures = []
    if not is_magic(sys).is_magic:
        failures.append("not magic")
    if not is_ergodic(sys):
        failures.append("not ergodic")
    if not is_free_brute(sys).free:
        failures.append("not free")
    if failures:
        raise PreconditionError("decompose_and_converge requires a magic ergodic free system; this one is " + ", ".join(failures))

    w_part = invariant_w(sys)
    structured = cond_exp(sys, f3, w_part)
    mean_zero = f3 - structured
    p_s, p_t = partition_s(sys), partition_t(sys)
    a, b, grid = sys.orbit_grid(x)
    s_cycle, t_cycle = [row[0] for row in grid], grid[0]
    limit = F(0)
    for block in w_part.blocks():
        anchor = block[0]
        s_block, t_block = p_s.block_of[anchor], p_t.block_of[anchor]
        avg_s = sum((f1.values[p] for p in s_cycle if p_t.block_of[p] == t_block), F(0)) / a
        avg_t = sum((f2.values[p] for p in t_cycle if p_s.block_of[p] == s_block), F(0)) / b
        limit += structured.values[anchor] * avg_s * avg_t
    rows = []
    exact = True
    for N in schedule:
        track_a = cubic_average(sys, f1, f2, structured, x, N)
        track_b = cubic_average(sys, f1, f2, mean_zero, x, N)
        direct = cubic_average(sys, f1, f2, f3, x, N)
        exact = exact and track_a + track_b == direct
        rows.append(TrackRow(N, track_a, track_b, direct, windowed_sn(sys, mean_zero, x, N)))
    return ThreeTracks(limit, tuple(rows), exact)


def fourier_limit(kind, polys, x):
    """The N -> infinity limit of a torus average of `kind` for a generic
    rotation pair, from the Fourier closed forms, as a 60-digit mpf.  `polys`
    are trigonometric polynomials with coefficients `coeffs` {n: c_n}:
      birkhoff_1d, birkhoff_2d  c(0), the mean;
      cubic                     sum_n c1(n) c2(n) c3(-n) e(n x);
      fourfold                  sum_n c0(n) c1(-n) c2(-n) c3(n), the four-fold
                                self-joining of three independent uniform
                                coordinates (x0, x1, x2, x1 + x2 - x0);
      windowed_sn               |the four-fold sum| with f repeated.
    Each n x is reduced mod 1 as an exact Fraction before it becomes a phase."""
    with mpmath.workdps(60):
        c = [{n: mpmath.mpc(v.real, v.imag) for n, v in f.coeffs.items()} for f in polys]
        if kind == "cubic":
            total = mpmath.mpc(0)
            for n, cn in c[0].items():
                t = (n * F(x)) % 1
                total += cn * c[1].get(n, 0) * c[2].get(-n, 0) * mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator)
        elif kind in ("fourfold", "windowed_sn"):
            f = c * 4 if kind == "windowed_sn" else c
            total = mpmath.fsum(cn * f[1].get(-n, 0) * f[2].get(-n, 0) * f[3].get(n, 0) for n, cn in f[0].items())
        else:
            total = c[0].get(0, mpmath.mpc(0))
        value = mpmath.re(total)
        return abs(value) if kind == "windowed_sn" else value


# The multiples of alpha and of beta that each box index of a window average
# carries, for frequencies n of its observables, M = n0 + n1 + n2 + n3:
#   birkhoff_2d  f(x + i a + j b)                          i: n a, j: n b
#   cubic        f1(x + i a) f2(x + j b) f3(x + i a + j b)  i: (n1 + n3) a, j: (n2 + n3) b
#   fourfold     f0(x + i a + j b) f1(x + (i+k) a + j b)
#                f2(x + i a + (j+p) b) f3(x + (i+k) a + (j+p) b)
#                i: M a, k: (n1 + n3) a, j: M b, p: (n2 + n3) b
WINDOW_TURNS = {
    "birkhoff_2d": lambda a, b, n: (n * a, n * b),
    "cubic": lambda a, b, n1, n2, n3: ((n1 + n3) * a, (n2 + n3) * b),
    "fourfold": lambda a, b, n0, n1, n2, n3: (
        (n0 + n1 + n2 + n3) * a, (n1 + n3) * a, (n0 + n1 + n2 + n3) * b, (n2 + n3) * b
    ),
}


def fourier_window(kind, polys, x, alpha, beta, N):
    """One window average of `kind` (a key of WINDOW_TURNS) at window size N
    on the rotations by alpha and beta, from x, as a 60-digit mpf.  Expanded
    in frequencies, the box sum is sum_n c(n) e(M x) times one geometric mean
    (1/N) sum_{i<N} e(i t) per box index, t the multiple it carries, and each
    mean is e((N-1) t/2) sin(pi N t) / (N sin(pi t)), or 1 for an integer t.
    N t, (N-1) t/2 and M x are reduced as exact Fractions before they become
    mpfs."""

    def turn(t):  # e(t)
        t %= 1
        return mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator)

    def sin_pi(t):
        t %= 2
        return mpmath.sinpi(mpmath.mpf(t.numerator) / t.denominator)

    with mpmath.workdps(60):
        means = {}
        total = mpmath.mpc(0)
        for items in product(*(sorted(f.coeffs.items()) for f in polys)):
            ns = [n for n, _ in items]
            term = turn(sum(ns) * F(x))
            for _, c in items:
                term *= mpmath.mpc(c.real, c.imag)
            for t in WINDOW_TURNS[kind](F(alpha), F(beta), *ns):
                if t not in means:
                    means[t] = 1 if t.denominator == 1 else turn((N - 1) * t / 2) * sin_pi(N * t) / (N * sin_pi(t))
                term *= means[t]
            total += term
        return mpmath.re(total)


def pair_tensor(first, second):
    """The product of `first`'s pair measure along S and `second`'s along T."""
    transposed = FiniteMPS(list(second.weights), list(second.T), list(second.S))
    return {
        (yp, wp): y_mass * w_mass
        for yp, y_mass in rel_indep_square(first).entries.items()
        for wp, w_mass in rel_indep_square(transposed).entries.items()
    }


MIXED_VALUES = (F(-2), F(-1, 3), F(0), F(1, 2), F(5, 7))


def z4_observable():
    return Observable((F(1), F(0), F(-1), F(0)))


def random_observable(rng, n, lo=-2, hi=2):
    return Observable(tuple(F(rng.randint(lo, hi)) for _ in range(n)))


def sign_observable(rng, n):
    return Observable(tuple(F(rng.choice((-1, 1))) for _ in range(n)))


def mixed_observable(rng, n):
    """Values with distinct denominators, so a wrong common denominator shows."""
    return Observable(tuple(rng.choice(MIXED_VALUES) for _ in range(n)))


def draws(k):
    """k integer draws (the original cases, unchanged), then k mixed ones."""
    return [random_observable] * k + [mixed_observable] * k


def _types(n_max):
    """Every (p, q, r) with p r <= n_max and 0 <= q < r: by index p r, then p, then q."""
    return [(p, q, n // p) for n in range(1, n_max + 1) for p in range(1, n + 1) if n % p == 0 for q in range(n // p)]


def lattice_system(p, q, r):
    """The orbit type Z^2 / L, L = {(i, j) : p | i, j = (i/p) q mod r} with
    0 <= q < r: the points (i, j), i < p, j < r, at i r + j, uniformly
    weighted.  T adds 1 to j mod r; S adds 1 to i and wraps from i = p - 1 to
    (0, j - q mod r), so S^p = T^-q.  Every joint orbit of two commuting
    permutations is one of these, relabeled."""
    n = p * r
    S = [x + r if x < n - r else (x - q) % r for x in range(n)]
    return FiniteMPS([F(1, n)] * n, S, [x - x % r + (x + 1) % r for x in range(n)])


def _relabeled(rng, weights, S, T):
    """The system with each point x moved to sigma(x), sigma a seeded permutation."""
    sigma = rng.sample(range(len(S)), len(S))
    inverse = sorted(range(len(S)), key=sigma.__getitem__)
    return FiniteMPS([weights[x] for x in inverse], [sigma[S[x]] for x in inverse], [sigma[T[x]] for x in inverse])


def lattices(n_max):
    """Every orbit type of index at most n_max, in `_types` order, each relabeled
    by a permutation from one seeded stream (so `lattices(m)` is a prefix of
    `lattices(n)` for m <= n): 127 types up to 12, 220 up to 16, 491 up to 24."""
    rng = Random(0)
    return tuple(_relabeled(rng, sys.weights, sys.S, sys.T) for sys in starmap(lattice_system, _types(n_max)))


def lattice_unions(m):
    """Every disjoint union of two or three orbit types (a type may repeat) of
    total index at most m, under uniform point weights and under the orbit
    masses k : k - 1 : ... : 1 in `_types` order, each relabeled by a permutation from one
    seeded stream: 916 systems at m = 8, 7,684 at m = 12."""
    rng, systems, types = Random(1), [], _types(m)
    built = dict(zip(types, starmap(lattice_system, types)))
    for pieces in chain(*(combinations_with_replacement(types, k) for k in (2, 3))):
        sizes = [p * r for p, _, r in pieces]
        if sum(sizes) <= m:
            S, T = [], []
            for sys in map(built.get, pieces):
                S, T = S + [len(S) + y for y in sys.S], T + [len(T) + y for y in sys.T]
            k = len(pieces)
            skewed = [F(k - c, k * (k + 1) // 2 * size) for c, size in enumerate(sizes) for _ in range(size)]
            systems += [_relabeled(rng, weights, S, T) for weights in ([F(1, len(S))] * len(S), skewed)]
    return tuple(systems)
