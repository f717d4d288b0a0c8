"""Finite-dimensional operator constructions for the enclosure machinery.

Everything here works on dense complex matrices: block operator matrices
with Hermitian diagonal and antisymmetrically coupled off-diagonal blocks,
resolvent-factor norms, minimal relative bounds, and the spectral
projections / renormalized inner product attached to a diagonalizable
operator with signature-definite symmetrization.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockOperator",
    "KreinPerturbationProblem",
    "ProjectionData",
    "assemble_block",
    "block_signature",
    "resolvent_factor_norm",
    "resolvent_norm",
    "certify_resolvent_bound",
    "k_set_membership",
    "min_relative_bound",
    "spectral_projections",
    "j0_quadrature",
    "renorm_check",
]

_HERM_TOL = 1e-12
# Decision tolerances, relative to a norm (README, "Scope notes"): the K-set
# slack, resolvent_factor_norm's near-spectrum guard, the positive-definiteness
# guard on J A0 (both checks) and spectral_projections' zero-eigenvalue guard.
K_SET_SLACK = 1e-10
NEAR_SPECTRUM_TOL = 1e-12
POSITIVITY_TOL = 1e-10
ZERO_EIGENVALUE_TOL = 1e-10
# j0_quadrature's truncation, stabilization tolerance and doubling limit, and
# renorm_check's relative slack.
J0_TRUNCATION = 1e6
J0_QUAD_TOL = 1e-6
J0_MAX_DOUBLINGS = 6
RENORM_SLACK = 1e-8
# certify_resolvent_bound's error allowance delta = RESOLVENT_GRAM_C (n + 2)
# eps (norm_F(A) + sqrt(n) |lam|)^2 and its lam stack size.
RESOLVENT_GRAM_C = 8.0
RESOLVENT_CHUNK = 128


def _as_matrix(x, name: str) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _require_hermitian(m: np.ndarray, name: str):
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    scale = max(np.linalg.norm(m, 2), 1e-300)
    defect = np.linalg.norm(m - m.conj().T, 2)
    if defect > _HERM_TOL * scale:
        raise ValueError(f"{name} is not Hermitian: defect {defect:.3e} "
                         f"exceeds {_HERM_TOL:.1e} * norm")


@dataclass(frozen=True)
class BlockOperator:
    """The 2x2 operator matrix [[S+, M], [-M*, S-]] with Hermitian S+ and S-.

    With J = diag(I, -I) the product J S is Hermitian, so S is self-adjoint
    for the indefinite inner product (Jf, g).
    """

    s_plus: np.ndarray
    s_minus: np.ndarray
    coupling: np.ndarray  # maps the minus component into the plus component

    def __post_init__(self):
        sp = _as_matrix(self.s_plus, "s_plus")
        sm = _as_matrix(self.s_minus, "s_minus")
        m = _as_matrix(self.coupling, "coupling")
        _require_hermitian(sp, "s_plus")
        _require_hermitian(sm, "s_minus")
        if m.shape != (sp.shape[0], sm.shape[0]):
            raise ValueError(
                f"coupling shape {m.shape} incompatible with diagonal blocks "
                f"{sp.shape[0]}x{sp.shape[0]} and {sm.shape[0]}x{sm.shape[0]}")
        object.__setattr__(self, "s_plus", sp)
        object.__setattr__(self, "s_minus", sm)
        object.__setattr__(self, "coupling", m)

    @property
    def dims(self) -> tuple:
        return (self.s_plus.shape[0], self.s_minus.shape[0])


def assemble_block(block: BlockOperator) -> np.ndarray:
    """Dense (n+ + n-)^2 matrix [[S+, M], [-M*, S-]]."""
    m = block.coupling
    return np.block([[block.s_plus, m], [-m.conj().T, block.s_minus]])


def block_signature(block: BlockOperator) -> np.ndarray:
    """Signature vector (+1 on the plus block, -1 on the minus block)."""
    np_, nm = block.dims
    return np.concatenate([np.ones(np_), -np.ones(nm)])


def _factor_operands(t_op, s_op):
    """T U and d for Hermitian S = U diag(d) U*, after checking T and S."""
    t_op = _as_matrix(t_op, "T")
    s_op = _as_matrix(s_op, "S")
    _require_hermitian(s_op, "S")
    if t_op.shape[1] != s_op.shape[0]:
        raise ValueError(f"T has {t_op.shape[1]} columns but S has size {len(s_op)}")
    d, u = np.linalg.eigh(s_op)
    return t_op @ u, d


def resolvent_factor_norm(t_op, s_op, lam):
    """Largest singular value of T (S - lam)^{-1} for Hermitian S = U diag(d) U*,
    taken as that of B = (T U) / (d - lam): the square root of the largest
    eigenvalue of the smaller Gram, B B* = (T U) |d - lam|^-2 (T U)* when T
    has no more rows than columns, else B* B = C / (conj(d - lam) (d - lam)^T)
    with C = (T U)* (T U); one stacked eigvalsh over an array of lam (a float
    for a scalar lam).  Rejects lam within ``NEAR_SPECTRUM_TOL``
    max(norm(S), 1) of S's spectrum."""
    return _factor_norm(*_factor_operands(t_op, s_op), lam)


def _factor_norm(tu, d, lam):
    """``resolvent_factor_norm`` from S's factored operands T U and d."""
    lam = np.asarray(lam, dtype=complex)
    shifted = d - lam[..., None]
    guard = NEAR_SPECTRUM_TOL * max(np.max(np.abs(d)), 1.0)
    near = np.any(np.abs(shifted) <= guard, axis=-1)
    if np.any(near):
        raise ValueError(f"lambda = {lam[near].flat[0]} is in (or too close to) "
                         "the spectrum of S")
    if tu.shape[0] <= tu.shape[1]:
        gram = (tu / np.square(np.abs(shifted))[..., None, :]) @ tu.conj().T
    else:
        gram = (tu.conj().T @ tu) / (shifted.conj()[..., :, None]
                                     * shifted[..., None, :])
    norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    return float(norms) if lam.ndim == 0 else norms


def resolvent_norm(a_op, lam):
    """norm((A - lam)^{-1}) = 1 / sigma_min(A - lam) for square A, stacked over lam."""
    a_op = _as_matrix(a_op, "A")
    lam = np.asarray(lam, dtype=complex)
    shifted = lam[..., None, None] * np.eye(a_op.shape[0])
    np.subtract(a_op, shifted, out=shifted)  # A - lam, one stack in memory
    smin = np.linalg.svd(shifted, compute_uv=False)[..., -1]
    if np.any(smin == 0.0):
        raise ValueError(f"lambda = {lam[smin == 0.0].flat[0]} is an eigenvalue")
    return float(1.0 / smin) if lam.ndim == 0 else 1.0 / smin


def certify_resolvent_bound(a_op, lam, limit):
    """Per lam, whether norm((A - lam)^{-1}) <= limit is certified (a bool for
    a scalar lam; ``limit`` broadcasts against lam): whether the Cholesky
    factorization of the Gram

        G = A*A - conj(lam) A - lam A* + (|lam|^2 - limit^-2 - delta) I

    succeeds, which makes sigma_min(A - lam)^2 >= limit^-2 + delta less the
    errors below.  (A - lam)*(A - lam) = A*A - Re(lam) (A + A*)
    - Im(lam) i (A* - A) + |lam|^2 I, so each stack of ``RESOLVENT_CHUNK``
    Grams is one real matmul of per-lam coefficients with those four
    precomputed matrices.  delta = ``RESOLVENT_GRAM_C`` (n + 2) eps
    (norm_F(A) + sqrt(n) |lam|)^2 bounds the Gram's rounding
    (gamma_{n+4} (norm_F(A) + |lam|)^2), the Cholesky's backward error
    (gamma_{n+1} norm_F(A - lam)^2; Higham 2002, Thm. 10.3) and that of
    ``resolvent_norm``'s SVD (a few n eps norm(A - lam)^2 on sigma_min^2),
    so ``resolvent_norm`` does not exceed ``limit`` at a certified lam.
    A stack in which some Gram is not positive definite leaves all of its
    lam uncertified; the caller decides those by the SVD."""
    a_op = _as_matrix(a_op, "A")
    lam, limit = np.broadcast_arrays(np.asarray(lam, dtype=complex),
                                     np.asarray(limit, dtype=float))
    n, flat = a_op.shape[0], lam.ravel()
    ah = a_op.conj().T
    basis = np.stack((ah @ a_op, a_op + ah, 1j * (ah - a_op), np.eye(n)))
    basis = basis.view(float).reshape(4, -1)
    reach = np.linalg.norm(a_op) + math.sqrt(n) * np.abs(flat)
    delta = RESOLVENT_GRAM_C * (n + 2) * np.finfo(float).eps * reach * reach
    coef = np.column_stack((np.ones(flat.size), -flat.real, -flat.imag,
                            np.square(np.abs(flat)) - limit.ravel() ** -2.0
                            - delta))
    certified = np.zeros(flat.size, dtype=bool)
    gram = np.empty((min(flat.size, RESOLVENT_CHUNK), n, n), dtype=complex)
    for start in range(0, flat.size, RESOLVENT_CHUNK):
        chunk = gram[:min(flat.size - start, RESOLVENT_CHUNK)]
        np.matmul(coef[start:start + len(chunk)], basis,
                  out=chunk.view(float).reshape(len(chunk), -1))
        try:
            np.linalg.cholesky(chunk)
        except np.linalg.LinAlgError:
            continue
        certified[start:start + len(chunk)] = True
    return bool(certified[0]) if lam.ndim == 0 else certified.reshape(lam.shape)


def k_set_membership(t_op, s_op, lam):
    """Whether norm(T (S - lam)^{-1}) >= 1 - ``K_SET_SLACK`` (per lam; a bool
    for a scalar lam), in closed form: (S - lam)*(S - lam) = (S - x)^2 + y^2
    at lam = x + iy, so lam is a member when y^2 <= phi(x), the largest
    eigenvalue of T*T / (1 - K_SET_SLACK)^2 - (S - x)^2, taken in S's
    eigenbasis by one stacked eigvalsh.  phi >= 0 on S's spectrum."""
    return _k_set_member(*_factor_operands(t_op, s_op), lam)


def _k_set_member(tu, d, lam):
    """``k_set_membership`` from S's factored operands T U and d."""
    lam = np.asarray(lam, dtype=complex)
    gram = tu.conj().T @ tu / (1.0 - K_SET_SLACK) ** 2
    shift = np.square(d - lam.real[..., None])[..., None] * np.eye(d.size)
    member = lam.imag ** 2 <= np.linalg.eigvalsh(gram - shift)[..., -1]
    return bool(member) if lam.ndim == 0 else member


def min_relative_bound(t_op, s_op, b):
    """Least a with norm(Tf)^2 <= a norm(f)^2 + b norm(Sf)^2 for all f:
    max(0, largest eigenvalue of T*T - b S*S), one stacked eigvalsh over an
    array of b (a float for a scalar b)."""
    b = np.asarray(b, dtype=float)
    if not np.all((0.0 <= b) & (b < 1.0)):
        raise ValueError(f"b in [0, 1) required, got {b}")
    t_op = _as_matrix(t_op, "T")
    s_op = _as_matrix(s_op, "S")
    if t_op.shape[1] != s_op.shape[1]:
        raise ValueError("T and S must act on the same space")
    gram = t_op.conj().T @ t_op - b[..., None, None] * (s_op.conj().T @ s_op)
    top = np.linalg.eigvalsh(gram)[..., -1]
    top = np.where(top > 0.0, top, 0.0)  # max(0, top), NaN included
    return float(top) if b.ndim == 0 else top


@dataclass(frozen=True)
class KreinPerturbationProblem:
    """Signature J (diagonal +-1), A0 with J A0 Hermitian positive definite,
    and a perturbation V with J V Hermitian.

    Positive definiteness of J A0 encodes nonnegativity in the indefinite
    inner product together with the absence of a kernel.
    """

    signature: np.ndarray
    a0: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.signature, dtype=float).ravel()
        if not np.all(np.isin(sig, (-1.0, 1.0))):
            raise ValueError("signature entries must be +1 or -1")
        a0 = _as_matrix(self.a0, "A0")
        v = _as_matrix(self.v, "V")
        n = sig.size
        if a0.shape != (n, n) or v.shape != (n, n):
            raise ValueError("A0 and V must be square with the signature's size")
        p = sig[:, None] * a0
        _require_hermitian(p, "J @ A0")
        pe = np.linalg.eigvalsh(p)
        scale = max(abs(pe[0]), abs(pe[-1]), 1e-300)
        if pe[0] <= POSITIVITY_TOL * scale:
            raise ValueError(
                f"J @ A0 must be positive definite; smallest eigenvalue {pe[0]:.3e}")
        _require_hermitian(sig[:, None] * v, "J @ V")
        object.__setattr__(self, "signature", sig)
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.signature.size

    @property
    def jv_lower_bound(self) -> float:
        """Smallest eigenvalue of the Hermitian matrix J V."""
        return float(np.linalg.eigvalsh(self.signature[:, None] * self.v)[0])


@dataclass(frozen=True)
class ProjectionData:
    """Spectral projections of a signature-definite operator and the
    involution J0 = E+ - E- they generate."""

    e_plus: np.ndarray
    e_minus: np.ndarray
    j0: np.ndarray
    tau0: float
    signature: np.ndarray


def spectral_projections(problem: KreinPerturbationProblem) -> ProjectionData:
    """Diagonalize A0 = J P through the Hermitian congruence P^{1/2} J P^{1/2}.

    The congruence has the same inertia as J, so A0 has a real nonzero
    spectrum split by sign; E+ and E- project onto the positive and negative
    invariant subspaces, J0 = E+ - E- is an involution and tau0 = norm(J0).
    """
    sig = problem.signature
    p = sig[:, None] * problem.a0
    p = 0.5 * (p + p.conj().T)
    pe, pu = np.linalg.eigh(p)
    scale = max(abs(pe[-1]), 1e-300)
    if pe[0] <= POSITIVITY_TOL * scale:
        raise ValueError("J @ A0 not positive definite")
    sqrt_p = (pu * np.sqrt(pe)) @ pu.conj().T
    inv_sqrt_p = (pu / np.sqrt(pe)) @ pu.conj().T
    h = sqrt_p @ np.diag(sig) @ sqrt_p
    h = 0.5 * (h + h.conj().T)
    d, u = np.linalg.eigh(h)
    if np.min(np.abs(d)) <= ZERO_EIGENVALUE_TOL * max(np.max(np.abs(d)), 1e-300):
        raise ValueError("A0 has an eigenvalue too close to zero")
    w = inv_sqrt_p @ u           # eigenvectors of A0 (columns)
    w_inv = u.conj().T @ sqrt_p  # rows are left eigenvectors
    pos = (d > 0).astype(float)
    e_plus = (w * pos) @ w_inv
    e_minus = (w * (1.0 - pos)) @ w_inv
    j0 = (w * np.sign(d)) @ w_inv
    tau0 = float(np.linalg.norm(j0, 2))
    return ProjectionData(e_plus=e_plus, e_minus=e_minus, j0=j0, tau0=tau0,
                          signature=sig)


def j0_quadrature(a0) -> np.ndarray:
    """Truncated resolvent integral (1/pi) int_0^T ((A0+it)^-1 + (A0-it)^-1) dt.

    Geometric Gauss-Legendre panels from a scale-derived lower edge to
    T = J0_TRUNCATION norm(A0); node counts double, J0_MAX_DOUBLINGS times at
    most, until the matrix stabilizes entrywise below J0_QUAD_TOL / 10.
    """
    a0 = _as_matrix(a0, "A0")
    n = a0.shape[0]
    upper = J0_TRUNCATION * max(np.linalg.norm(a0, 2), 1e-300)
    smin = np.linalg.svd(a0, compute_uv=False)[-1]
    if smin <= 0.0:
        raise ValueError("A0 must be invertible")
    edges = [0.0, min(smin, upper)]
    while edges[-1] < upper:
        edges.append(min(edges[-1] * 2.0, upper))
    eye = np.eye(n)

    def integral(nodes_per_panel: int) -> np.ndarray:
        xs, ws = np.polynomial.legendre.leggauss(nodes_per_panel)
        acc = np.zeros((n, n), dtype=complex)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            for xk, wk in zip(xs, ws):
                t = mid + half * xk
                acc += (wk * half) * (np.linalg.inv(a0 - 1j * t * eye)
                                      + np.linalg.inv(a0 + 1j * t * eye))
        return acc / math.pi

    nodes = 8
    prev = integral(nodes)
    for _ in range(J0_MAX_DOUBLINGS):
        nodes *= 2
        cur = integral(nodes)
        if np.max(np.abs(cur - prev)) < 0.1 * J0_QUAD_TOL:
            return cur
        prev = cur
    raise ArithmeticError("resolvent quadrature did not stabilize")


def renorm_check(data: ProjectionData, trials: int = 100,
                 rng: np.random.Generator | None = None) -> bool:
    """Check the renormalization inequalities on random vectors and matrices.

    With the scalar product (f, g)_0 = (J J0 f, g) (its Gram matrix must be
    positive definite) the inequalities, each up to RENORM_SLACK, are

        norm_0(T) <= tau0 * norm(T),
        tau0^{-1} norm(f)^2 <= norm_0(f)^2 <= tau0 * norm(f)^2,
        norm_0(E+- f)^2 <= (1 + tau0)/2 * norm(f)^2,
        norm(E+- f)^2 <= (1 + tau0)/2 * norm_0(f)^2.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    gram = data.signature[:, None] * data.j0
    gram = 0.5 * (gram + gram.conj().T)
    ge, gu = np.linalg.eigh(gram)
    if ge[0] <= 0.0:
        raise ValueError("Gram matrix J @ J0 is not positive definite; "
                         "projection data is inconsistent")
    g_half = (gu * np.sqrt(ge)) @ gu.conj().T
    g_half_inv = (gu / np.sqrt(ge)) @ gu.conj().T
    n = gram.shape[0]
    tau0 = data.tau0
    cap = (1.0 + tau0) / 2.0

    def norm0_sq(f):
        return float(np.real(f.conj() @ (gram @ f)))

    for _ in range(trials):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nf = float(np.real(f.conj() @ f))
        n0 = norm0_sq(f)
        if (n0 > tau0 * nf * (1.0 + RENORM_SLACK)
                or n0 < nf / tau0 * (1.0 - RENORM_SLACK)):
            return False
        for proj in (data.e_plus, data.e_minus):
            pf = proj @ f
            if norm0_sq(pf) > cap * nf * (1.0 + RENORM_SLACK):
                return False
            if float(np.real(pf.conj() @ pf)) > cap * n0 * (1.0 + RENORM_SLACK):
                return False
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norm0_t = np.linalg.norm(g_half @ t @ g_half_inv, 2)
        if norm0_t > tau0 * np.linalg.norm(t, 2) * (1.0 + RENORM_SLACK):
            return False
    return True
