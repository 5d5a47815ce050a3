"""Independent numerical oracles used by the tests.

Everything here is deliberately primitive (power series, bisection,
finite differences) and shares no code with the package under test.
"""

from __future__ import annotations


def i0_series(x: float, terms: int = 40) -> float:
    """I0 by its defining power series sum (x/2)^{2k} / (k!)^2."""
    half = x / 2.0
    term = 1.0
    total = 1.0
    for k in range(1, terms):
        term *= (half * half) / (k * k)
        total += term
    return total


def i1_series(x: float, terms: int = 40) -> float:
    """I1 = sum (x/2)^{2k+1} / (k! (k+1)!)."""
    half = x / 2.0
    term = half
    total = half
    for k in range(1, terms):
        term *= (half * half) / (k * (k + 1))
        total += term
    return total


def j1_series(x: float, terms: int = 60) -> float:
    """Bessel J1 by its alternating power series (fine for x <= 25)."""
    half = x / 2.0
    term = half
    total = half
    for k in range(1, terms):
        term *= -(half * half) / (k * (k + 1))
        total += term
    return total


def j1_zeros(count: int) -> list[float]:
    """First ``count`` positive zeros of J1 by sign-scan plus bisection."""
    zeros = []
    x = 0.5
    step = 0.05
    prev = j1_series(x)
    while len(zeros) < count:
        x2 = x + step
        cur = j1_series(x2)
        if prev * cur < 0.0:
            a, b, fa = x, x2, prev
            for _ in range(100):
                mid = 0.5 * (a + b)
                fm = j1_series(mid)
                if (fa < 0.0) != (fm < 0.0):
                    b = mid
                else:
                    a, fa = mid, fm
            zeros.append(0.5 * (a + b))
        x, prev = x2, cur
    return zeros


def int_r3_i1(terms: int = 40) -> float:
    """int_0^1 s^3 I1(s) ds by term-by-term integration of the I1 series."""
    total = 0.0
    half_pow = 0.5
    fact = 1.0  # k! (k+1)!
    for k in range(terms):
        if k > 0:
            half_pow *= 0.25
            fact *= k * (k + 1)
        total += half_pow / (fact * (2 * k + 5))
    return total


def carry_recurrence(decay, increment) -> list[complex]:
    """y_k = decay_k y_{k-1} + increment_k from y = 0, one term at a time."""
    out, acc = [], 0j
    for d, inc in zip(decay, increment):
        acc = d * acc + inc
        out.append(acc)
    return out


def h_ratio_gaps(f, u, n, r, nodes: int = 10):
    """H_n(r) / I1(N r) at ascending radii r > 0, N = |n|, one Gauss panel per gap.

    H_n(r) = int_0^r s^2 f u N I1(N s) ds, so across the gap to r_k+1 the
    ratio is multiplied by I1(N r_k) / I1(N r_k+1) and gains the gap integral
    of s^2 f u N I1(N s) / I1(N r_k+1); both ratios are formed from scipy's
    ``i1e`` times exp(-N * distance) <= 1.  ``f`` and ``u`` map arrays to
    arrays.  This gap rule was the package's closed route before the panel
    collocation.  The collocation agrees with it to 7e-13 of max |y| up to
    n = 10^4, but the gap integrals under-resolve the Bessel ratio's 1/N width
    beyond that: against ``H_RATIO_REFERENCES`` on 512 panels its relative
    error is 1.5e-5 at n = 10^5 and 0.78 at n = 10^6.
    """
    import numpy as np
    from scipy.special import i1e

    N = abs(int(n))
    r = np.asarray(r, dtype=float)
    x = np.concatenate([[0.0], r])
    t, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(x)[:, None]
    s = x[:-1, None] + half * (t + 1.0)
    gaps = np.sum(half * w * s * s * f(s) * u(s) * i1e(N * s) * np.exp(-N * (r[:, None] - s)),
                  axis=1)
    i1 = i1e(N * r)
    decay = np.concatenate([[0.0], i1[:-1]]) / i1 * np.exp(-N * np.diff(x))
    return np.array(carry_recurrence(decay.tolist(), (N / i1 * gaps).tolist()))


def central_diff(fn, x: float, h: float):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def five_point_diff(fn, x: float, h: float):
    """Fourth-order central first derivative."""
    return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)


# ---------------------------------------------------------------------------
# Curvature reference values from mpmath (a third route, independent of both
# the closed Bessel-ratio rule and the Galerkin oracle)
# ---------------------------------------------------------------------------

def _mp_poly(coeffs, x):
    """sum c_k x^k in mpmath, c_k real or complex Python numbers."""
    from mpmath import mp

    return sum(mp.mpmathify(c) * x ** k for k, c in enumerate(coeffs))


# (u, n, g, f, Kbar): u, g, f as ascending polynomial coefficients (g and f
# complex), Kbar = 4 pi^2 int_0^1 (1/r) [n^2 |g|^2 eta + |H_n|^2 / I1(|n| r)^2] dr
# from ``kbar_mpmath`` at 30 digits, confirmed to the digits shown at 40.
KBAR_REFERENCES = [
    ([1.0, 0.0, 1.0], 3, [0, 0, 1, -1], [0, 1, -1], "23.71589935452322637369163"),
    ([2.0, 0.0, -1.0], 2, [0, 0, 1, -1 + 0.5j, 0, -0.5j], [0, 1 - 0.3j, -1],
     "1.298802181392846052156531"),
    ([1.0, 0.0, 1.0], 100, [0, 0, 1, -1], [0, 1, -1], "26162.79756580552615952609"),
]


def kbar_mpmath(u, n, g, f, dps=30):
    """Kbar of the closed formula by nested ``mpmath.quad`` at ``dps`` digits.

    Produced ``KBAR_REFERENCES``; the tests read the frozen values and do not
    run this (minutes per value at large n).  The inner integral
    H_n(r) / I1(N r) = int_0^r s^2 f u N I1(N s) / I1(N r) ds is split at
    r - 40/N, r - 10/N and r - 2/N, because the Bessel ratio peaks at s = r
    with width 1/N.
    """
    from mpmath import mp

    mp.dps = dps
    N = abs(int(n))
    du = [k * c for k, c in enumerate(u)][1:]

    def eta(r):
        return _mp_poly(u, r) ** 2 + 2 * r * _mp_poly(u, r) * _mp_poly(du, r)

    def h_ratio(r):
        i1r = mp.besseli(1, N * r)
        pts = [0] + [r - d / N for d in (40, 10, 2) if r - d / N > 0] + [r]
        return mp.quad(lambda s: s * s * _mp_poly(f, s) * _mp_poly(u, s) * N
                       * mp.besseli(1, N * s) / i1r, pts)

    outer = [0, mp.mpf(1) / N, mp.mpf(10) / N, 1] if N > 10 else [0, 1]
    first = mp.quad(lambda r: N * N * abs(_mp_poly(g, r)) ** 2 * eta(r) / r, [0, 1])
    second = mp.quad(lambda r: abs(h_ratio(r)) ** 2 / r, outer)
    return 4 * mp.pi ** 2 * (first + second)


# H_n(r) / I1(N r) for u = 1 + r^2, f = r (1 - r) at the node r (its exact
# double) nearest 0.587 of the 32-, 64- or 512-panel Gauss set: (n, r, value)
# from ``h_ratio_mpmath`` at 30 digits, confirmed to the digits shown at 40
H_RATIO_PROFILE = [1.0, 0.0, 1.0]
H_RATIO_F = [0.0, 1.0, -1.0]
H_RATIO_PANELS = (32, 64, 512)
H_RATIO_REFERENCES = [
    (200, "0.5887407745046722", "0.1114778089088611321041915"),
    (10_000, "0.5887407745046722", "0.1129834516028135097888124"),
    (1_000_000, "0.5887407745046722", "0.1130135463750530012503263"),
    (200, "0.587100580773294", "0.1108195197272142892992974"),
    (10_000, "0.587100580773294", "0.1123273005122684774248937"),
    (1_000_000, "0.587100580773294", "0.1123574466557621375782135"),
    (10_000, "0.5870594475966617", "0.1123108407019114875381092"),
    (100_000, "0.5870594475966617", "0.1123382479814128222142404"),
    (1_000_000, "0.5870594475966617", "0.1123409880960220503071009"),
]


def h_ratio_mpmath(u, f, n, r, dps=30):
    """H_n(r) / I1(N r) = int_0^r s^2 f u N I1(N s) / I1(N r) ds by ``mpmath.quad``.

    ``r`` is read as the exact double it names.  The integral is split at
    r - 40/N, r - 10/N and r - 2/N, because the Bessel ratio peaks at s = r
    with width 1/N.  Produced ``H_RATIO_REFERENCES``: each value takes about
    0.4 s at dps = 30 and 0.6 s at dps = 40 on a 2-core machine; the tests
    read the frozen values and do not run this.
    """
    from mpmath import mp

    mp.dps = dps
    N = abs(int(n))
    r = mp.mpf(float(r))
    i1r = mp.besseli(1, N * r)
    pts = [0] + [r - mp.mpf(d) / N for d in (40, 10, 2) if r - mp.mpf(d) / N > 0] + [r]
    return mp.quad(lambda s: s * s * _mp_poly(f, s) * _mp_poly(u, s) * N
                   * mp.besseli(1, N * s) / i1r, pts)


# ---------------------------------------------------------------------------
# Pressure reference values from mpmath (independent of the Galerkin oracle,
# which the tests pin to them)
# ---------------------------------------------------------------------------

# u and f as ascending polynomial coefficients (f complex), taken as the binary
# doubles they name, so q_n'(1) = -f(1) u(1) reads 2 * 0.3 as a double; q_n
# depends on the mode through f only
PRESSURE_PROFILE = [1.0, 0.0, 1.0]
PRESSURE_F = [0, 1 - 0.3j, -1]

# n -> [(r, q_n(r), q_n'(r))], from ``pressure_mpmath`` at 30 digits,
# confirmed to the digits shown at 40
PRESSURE_REFERENCES = {
    1: [
        ("0.05", "0.06013965856525383345661855-0.05184503061482821336177243j",
         "-8.77315896940014823721633e-4-5.440336541538460061764696e-4j"),
        ("0.16875", "0.05914687850214358716483465-0.05170545760877218406331316j",
         "-0.01930160875472240988910122+4.414341628357823048992511e-3j"),
        ("0.2875", "0.05485666641282935065291047-0.05039932888695281647644552j",
         "-0.05541267271446201758011437+0.01946119886842816154746929j"),
        ("0.40625", "0.04552370160245710081442563-0.04657031907957360208973906j",
         "-0.1031467367981709518265542+0.04752339854079872554491003j"),
        ("0.525", "0.03021063004220112965593698-0.03842093955504370255477758j",
         "-0.1544740135348426185472985+0.09311168633421932015045151j"),
        ("0.64375", "9.195278469646446207087025e-3-0.02352140143073347683858273j",
         "-0.1964651240188145662217408+0.16237532006485237790162j"),
        ("0.7625", "-0.01527046063976761564535073+1.389180500997865919649342e-3j",
         "-0.2082957001337846978024467+0.2631765726841890314880915j"),
        ("0.88125", "-0.03784054197133984637733667+0.04061165624766349423576982j",
         "-0.1581521117312760041265241+0.4051860470547121565491103j"),
        ("1", "-0.04857947646266564785194511+0.09970832133088413759959391j",
         "0.0+0.5999999999999999777955395j"),
    ],
    10: [
        ("0.05", "3.618929923496590399506813e-3-1.690250130798330777258842e-3j",
         "6.452641389954592294527797e-3-3.365034760578699904653323e-3j"),
        ("0.16875", "4.762113855178081870825545e-3-2.413579661387609128879564e-3j",
         "0.01100332041067828733223188-8.358456630422374769426193e-3j"),
        ("0.2875", "5.952855433001764902738593e-3-3.61800236664930164454888e-3j",
         "8.222448025652887035720087e-3-0.01180571874972575379285203j"),
        ("0.40625", "6.543536937825956561459021e-3-5.190894723979848251993458e-3j",
         "1.025321412036630723048442e-3-0.01451105386825352592273093j"),
        ("0.525", "6.020747997438426368782899e-3-6.97475667211048256854859e-3j",
         "-0.01061154794595164847539181-0.01481052466361633670507302j"),
        ("0.64375", "3.840260127923047226999584e-3-8.368281861800156535787114e-3j",
         "-0.02678853561055185306457775-6.106440653660559054180903e-3j"),
        ("0.7625", "-4.204143463222612209639661e-4-7.28962914066100011572304e-3j",
         "-0.04466294716668477992164902+0.03255186272577832090823159j"),
        ("0.88125", "-6.349885607770353664043541e-3+2.978045616597777559169608e-3j",
         "-0.05105771093606972954512759+0.1665122955799093169765939j"),
        ("1", "-0.01038915466958390187113481+0.04362005459779784959108865j",
         "0.0+0.5999999999999999777955395j"),
    ],
}


# (f, n, Kbar) for u = ``PRESSURE_PROFILE`` and g = 0, so that Kbar is the
# pressure term 4 pi^2 int_0^1 |H_n|^2 / (r I1(|n| r)^2) dr alone, the one term
# the two routes do not share: f(1) = 0 and f(1) != 0, from
# ``kbar_mpmath(PRESSURE_PROFILE, n, [0], f)`` at 30 digits, confirmed to the
# digits shown at 40 (38-74 s a value at 30 digits on a 2-core machine)
PRESSURE_TERM_REFERENCES = [
    ([0, 1, -1], 100, "0.5128835527818842029123977"),
    ([0, 1, -1], 10_000, "0.5141307819888866342972201"),
    ([0, 1, -1], 1_000_000, "0.5141309074612261727311624"),
    (PRESSURE_F, 100, "2.213226993198416518512273"),
    (PRESSURE_F, 10_000, "2.348456674584229331956300"),
    (PRESSURE_F, 1_000_000, "2.349863113903237665231231"),
]


def pressure_mpmath(u, n, f, radii, dps=30):
    """q_n and q_n' at ``radii`` (decimal strings) by ``mpmath.quad`` at ``dps`` digits.

    q_n solves (1/r)(r q')' - n^2 q = -(1/r) d/dr(r^2 f u), regular at the axis,
    with q'(1) = -f(1) u(1).  With xi = I0(N r), zeta = (K1(N)/I1(N)) I0(N r)
    + K0(N r) (so zeta'(1) = 0), H(r) = int_0^r s^2 f u xi' ds and
    J(r) = -int_r^1 s^2 f u zeta' ds, q = -zeta H + xi J, and the Wronskian
    xi zeta' - zeta xi' = -1/r gives q' = -zeta' H + xi' J - r f u.
    Produced ``PRESSURE_REFERENCES``; the tests read the frozen values and do
    not run this (seconds per radius).
    """
    from mpmath import mp

    mp.dps = dps
    N = abs(int(n))
    c = mp.besselk(1, N) / mp.besseli(1, N)

    def source(s):
        return s * s * _mp_poly(f, s) * _mp_poly(u, s)

    def xi(r, d):       # d-th derivative, d = 0 or 1
        return N * mp.besseli(1, N * r) if d else mp.besseli(0, N * r)

    def zeta(r, d):
        if d:
            return N * (c * mp.besseli(1, N * r) - mp.besselk(1, N * r))
        return c * mp.besseli(0, N * r) + mp.besselk(0, N * r)

    out = []
    for r in map(mp.mpf, radii):
        H = mp.quad(lambda s: source(s) * xi(s, 1), [0, r])
        J = -mp.quad(lambda s: source(s) * zeta(s, 1), [r, 1])
        out.append((-zeta(r, 0) * H + xi(r, 0) * J,
                    -zeta(r, 1) * H + xi(r, 1) * J - source(r) / r))
    return out


# ---------------------------------------------------------------------------
# Sturm-Liouville reference values from a Frobenius power series (a third
# route, independent of the Galerkin solver and of the benchmark's ODE shooting)
# ---------------------------------------------------------------------------

# (u, n, [lambda_1n, lambda_2n, ...]): u as ascending polynomial coefficients,
# lambda from ``sl_mpmath`` at 50 digits, confirmed to the digits shown at 60.
SL_REFERENCES = [
    ([1.0, 0.0, 1.0], 1, ["1.272467027215984364015192", "2.355165166999162094624288",
                          "3.419435869888166297585461"]),
    ([1.0, 0.0, 1.0], 3, ["1.543517323292708874478725", "2.541879904290760251762828",
                          "3.556155910135333916557560"]),
    ([1.0, 0.0, 1.0], 5, ["1.951985515442162910489454", "2.877001573137680789053489",
                          "3.817057469837206424679537"]),
    ([1.0, 0.0, 1.0], 64, ["14.81769944471056505505723"]),
]


def sl_mpmath(u, n, lam0, dps=40):
    """lambda with phi(1; lambda) = 0, by ``mpmath.findroot`` from ``lam0``.

    phi'' - phi'/r - n^2 phi = -lambda^2 (2 u omega) phi is the SL problem
    times r.  With 2 u omega = sum c_j r^j and phi = sum a_k r^k, a_2 = 1 (the
    solution regular at the axis), k (k - 2) a_k = n^2 a_{k-2}
    - lambda^2 sum_j c_j a_{k-2-j}.  The series is entire; it is summed until
    its terms stay below 10^-dps of the largest, which at n = 64 are about
    e^64 times phi(1), hence ``dps`` >= 40 there.  Produced ``SL_REFERENCES``.
    """
    from mpmath import mp

    mp.dps = dps
    u = [mp.mpf(c) for c in u]
    omega = [(2 + k) * c for k, c in enumerate(u)]
    c2 = [2 * sum(u[i] * omega[j - i] for i in range(max(0, j - len(omega) + 1),
                                                      min(j, len(u) - 1) + 1))
          for j in range(len(u) + len(omega) - 1)]
    tiny = mp.mpf(10) ** -dps

    def phi_at_one(lam):
        a = [mp.zero, mp.zero, mp.one]
        total, big, k = mp.one, mp.one, 3
        while k < 40 or abs(a[-1]) + abs(a[-2]) > tiny * big:
            conv = sum(c * a[k - 2 - j] for j, c in enumerate(c2) if k - 2 - j >= 0)
            a.append((n * n * a[k - 2] - lam * lam * conv) / (k * (k - 2)))
            total += a[-1]
            big = max(big, abs(a[-1]))
            k += 1
        return total

    return mp.findroot(phi_at_one, mp.mpf(lam0))


# ---------------------------------------------------------------------------
# Oscillation study reference values from mpmath (g = sin(k pi r), f = 0)
# ---------------------------------------------------------------------------

def oscillation_mpmath(u, n, k, dps=30):
    """The oscillation study's value at k, num / (<<X, X>> den), by ``mpmath.quad``.

    num = int_0^1 n^2 sin^2(k pi r) eta / r dr and den = int_0^1 (n^2 sin^2(k pi r) / r
    + (k pi cos(k pi r))^2) dr, each split at the 2k + 1 points j / 2k, where
    sin(k pi r) or cos(k pi r) vanishes, and <<X, X>> = 4 pi^2 int_0^1 r^3 u^2 dr,
    u as ascending polynomial coefficients.  Produced ``OSCILLATION_REFERENCES``;
    the tests read the frozen values and do not run this.
    """
    from mpmath import mp

    mp.dps = dps
    du = [j * c for j, c in enumerate(u)][1:]
    w = k * mp.pi
    pts = [mp.mpf(j) / (2 * k) for j in range(2 * k + 1)]

    def eta(r):
        return _mp_poly(u, r) ** 2 + 2 * r * _mp_poly(u, r) * _mp_poly(du, r)

    num = n * n * mp.quad(lambda r: mp.sin(w * r) ** 2 * eta(r) / r, pts)
    den = mp.quad(lambda r: n * n * mp.sin(w * r) ** 2 / r + (w * mp.cos(w * r)) ** 2, pts)
    xx = 4 * mp.pi ** 2 * mp.quad(lambda r: r ** 3 * _mp_poly(u, r) ** 2, [0, 1])
    return num / (xx * den)


# (u, n, k, value) of the oscillation study: u as ascending polynomial coefficients,
# value from ``oscillation_mpmath`` at 30 digits, confirmed to the digits shown at 40
OSCILLATION_REFERENCES = [
    ([1.0], 1, 1, "0.02006831507273594513826145"),
    ([1.0], 1, 16, "0.0002076114597260262904903626"),
    ([1.0], 1, 17, "0.0001860932764454695181844007"),
    ([1.0], 1, 48, "0.00002800228177338734372523181"),
    ([1.0], 1, 64, "0.0000164739769271780801422246"),
    ([1.0], 3, 1, "0.06988303115157422465817864"),
    ([1.0], 3, 16, "0.001838367977590707674492269"),
    ([1.0], 3, 17, "0.001650586860405117893731436"),
    ([1.0], 3, 48, "0.0002514645549842239631060508"),
    ([1.0], 3, 64, "0.0001480731886496471741301935"),
    ([1.0, 0.0, 1.0], 1, 1, "0.01832788046386790829848406"),
    ([1.0, 0.0, 1.0], 1, 16, "0.0001332826546014947549538182"),
    ([1.0, 0.0, 1.0], 1, 17, "0.000118849307711333551089929"),
    ([1.0, 0.0, 1.0], 1, 48, "0.0000165646340504924091511886"),
    ([1.0, 0.0, 1.0], 1, 64, "0.000009573166474547728785916019"),
    ([1.0, 0.0, 1.0], 3, 1, "0.06382239050745554830705474"),
    ([1.0, 0.0, 1.0], 3, 16, "0.001180197685190470114495063"),
    ([1.0, 0.0, 1.0], 3, 17, "0.001054154719738385489134812"),
    ([1.0, 0.0, 1.0], 3, 48, "0.0001487528182057758072050981"),
    ([1.0, 0.0, 1.0], 3, 64, "0.00008604657464474184770157641"),
]
