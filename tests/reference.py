"""Reference implementations the tests compare the package against.

None of these runs in ``secondkind`` itself:

* ``operator_matrix_einsum`` is operator assembly as two ``np.einsum``
  contractions; ``operator2k.operator_matrix`` must equal it bitwise.
* ``jacobi_eigen`` is cyclic Jacobi, the accuracy reference for the LAPACK
  ``numerics.eigensolve``: Jacobi's method is more accurate than QR (Demmel
  and Veselic, SIAM J. Matrix Anal. Appl., 1992).
* ``kahler_basis`` is the orthonormal basis of ``S^2_0`` adapted to the
  standard complex structure, returned with one family label per tensor,
  used to check the Kahler trace identities.
* ``space_form_components`` and ``kahler_model_components`` build the model
  tensors' components from scratch on every call; the cached unit tensors
  of ``curvature`` times the curvature must equal them bitwise.
* ``einstein_constant_model``, ``constant_sectional_model`` and
  ``constant_holomorphic_model`` are the structure detectors compared
  against checked model tensors, ``space_form(n, c)`` and
  ``kahler_space_form(m, c / 4)``; the detectors of ``curvature``, which
  compare against the cached unit tensors times the curvature, must return
  the same values.
* ``cluster_spectrum_loop`` is clustering as one Python loop over the
  gaps; ``numerics.cluster_spectrum`` must return its clusters bit for bit.
* ``f_lemma`` is the weighted partial sum of a multiset's smallest values,
  taken on a sorted copy; ``operator2k.alpha_sum`` must equal it.
* ``spectrum_from_eigenvalues`` and ``negate_spectrum`` build a spectrum,
  an ascending array, from given eigenvalues by sorting them; the negated
  tensor's verdict and threshold, which ``operator2k`` reads off the
  tensor's own eigenvalues, must equal those of ``negate_spectrum``.
* ``NEGATED_VERDICT`` maps a tensor's verdict to its negation's, read off
  ``operator2k.VERDICTS`` with the (nonnegative, nonpositive) key reversed,
  as ``rigidity._sweep`` reads the negative family's verdict.
* ``nonneg_threshold_cumsum`` is the threshold read off ``np.cumsum`` and
  ``np.argmax``; ``operator2k.nonneg_threshold``, one scan of Python float
  sums, must return the same value bit for bit and raise or warn as it does
  under every ``np.errstate``.
* ``parse_descriptor_loads`` parses with ``json.loads(text, **hooks)``;
  ``descriptors.parse_descriptor``, which shares one decoder between calls,
  must return the same descriptor or raise the same error text.
* ``check_identities_two_branch`` checks a single tensor on its own path,
  under the caller's error state, and a stack by one reduction pass that,
  when it fails, checks each tensor on the single path;
  ``curvature.check_identities``, one pass for any shape, must raise the
  same exception with the same message and emit the same warnings.
* ``signed_qr_families`` draws each seed's ``n x n`` standard normal matrix
  from its own ``seeded_stream``, orthonormalizes the stack by
  ``np.linalg.qr`` and gives each Q column the sign of its diagonal entry of
  R; ``numerics.random_orthonormal_families``, which calls LAPACK's QR
  gufuncs itself and reads R's diagonal off the factored draws, must return
  its transposed Q bit for bit.
"""

import json
import math

import numpy as np

from secondkind import descriptors
from secondkind.curvature import (
    _IDENTITIES,
    _TENSOR_AXES,
    DETECTOR_TOL,
    _largest,
    kahler_space_form,
    ricci,
    scalar,
    space_form,
    standard_complex_structure,
)
from secondkind.errors import ConvergenceError, InvalidInputError
from secondkind.numerics import CLUSTER_REL_TOL, SYMMETRY_TOL, _symmetric_operand, seeded_stream
from secondkind.operator2k import VERDICTS, weighted_partial_sums
from secondkind.sym2 import Sym2Basis, sym_product

NEGATED_VERDICT = {v: VERDICTS[key[::-1]] for key, v in VERDICTS.items()}

JACOBI_REL_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100

LABEL_PLUS = "plus"
LABEL_MINUS = "minus"
LABEL_ALPHA = "alpha"
LABEL_ETA = "eta"


def operator_matrix_einsum(r, basis):
    """Matrix of the operator in a basis: entry [a, b] is
    ``sum R[i,j,k,l] b_a[i,l] b_b[j,k]``, by two planned einsums."""
    t = np.einsum("ail,ijkl->ajk", basis.tensors, r.components, optimize=True)
    mat = np.einsum("ajk,bjk->ab", t, basis.tensors, optimize=True)
    return (mat + mat.T) / 2.0


def _rotate(a, v, p, q, c, s, t):
    """Apply the rotation that zeroes a[p, q] to a and v: rows and columns p
    and q at once, each entry by the expression of ``_rotate_loop``'s
    element loop, so the results are bitwise its own; the four entries at p
    and q, which the slices also write, are set after."""
    apq, app, aqq = a[p, q], a[p, p], a[q, q]
    akp = a[:, p].copy()
    akq = a[:, q].copy()
    a[:, p] = a[p, :] = c * akp - s * akq
    a[:, q] = a[q, :] = s * akp + c * akq
    a[p, p] = app - t * apq
    a[q, q] = aqq + t * apq
    a[p, q] = 0.0
    a[q, p] = 0.0
    vkp = v[:, p].copy()
    vkq = v[:, q].copy()
    v[:, p] = c * vkp - s * vkq
    v[:, q] = s * vkp + c * vkq


def _rotate_loop(a, v, p, q, c, s, t):
    """``_rotate`` element by element: the reference it is compared with."""
    apq, app, aqq = a[p, q], a[p, p], a[q, q]
    n = a.shape[0]
    for k in range(n):
        if k != p and k != q:
            akp = a[k, p]
            akq = a[k, q]
            a[k, p] = c * akp - s * akq
            a[p, k] = a[k, p]
            a[k, q] = s * akp + c * akq
            a[q, k] = a[k, q]
    a[p, p] = app - t * apq
    a[q, q] = aqq + t * apq
    a[p, q] = 0.0
    a[q, p] = 0.0
    for k in range(n):
        vkp = v[k, p]
        vkq = v[k, q]
        v[k, p] = c * vkp - s * vkq
        v[k, q] = s * vkp + c * vkq


def _jacobi_sweeps(a, v, tol, max_sweeps):
    n = a.shape[0]
    for sweep in range(max_sweeps + 1):
        off = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                off += 2.0 * a[i, j] * a[i, j]
        off = np.sqrt(off)
        if off <= tol or sweep == max_sweeps:
            return sweep, off, off <= tol
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                _rotate(a, v, p, q, c, t * c, t)


def jacobi_eigen(m):
    """Eigendecomposition of a real symmetric matrix by cyclic Jacobi rotations.

    Plain Python, so slow beyond a few dozen rows. Returns ``(w, q)`` with
    ``w`` ascending and the columns of ``q`` the matching orthonormal
    eigenvectors, so ``q @ diag(w) @ q.T`` reconstructs the input. The input
    checks are those of ``eigensolve``. Convergence: off-diagonal Frobenius
    norm below ``1e-13 * max(1, ||m||_F)`` within 100 sweeps, else
    ConvergenceError.
    """
    a = _symmetric_operand(m).copy()  # rotated in place below
    n = a.shape[0]
    v = np.eye(n)
    tol = JACOBI_REL_TOL * max(1.0, float(np.linalg.norm(a)))
    sweeps, off, converged = _jacobi_sweeps(a, v, tol, JACOBI_MAX_SWEEPS)
    if not converged:
        raise ConvergenceError(
            f"Jacobi eigensolver did not converge: n={n}, sweeps={sweeps}, "
            f"off-diagonal norm={off:.3e}, tolerance={tol:.3e}"
        )
    w = np.diagonal(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def kahler_basis(m):
    """Orthonormal basis of the traceless symmetric two-tensors on R^{2m}
    adapted to the standard complex structure J, and the list of its
    tensors' labels.

    Families, in order: the J-anti-invariant and J-invariant combinations of
    off-diagonal symmetric products (labels ``plus``/``minus``), the 2m
    diagonal-type tensors built from e_i and J e_i (``alpha``), and the m-1
    invariant diagonal telescoping tensors (``eta``).
    """
    n = 2 * m
    e = np.eye(n)
    je = (standard_complex_structure(m) @ e.T).T
    tensors = []
    labels = []
    for i in range(m):
        for k in range(i + 1, m):
            tensors.append(0.5 * (sym_product(e[i], e[k]) - sym_product(je[i], je[k])))
            labels.append(LABEL_PLUS)
    for i in range(m):
        for k in range(i + 1, m):
            tensors.append(0.5 * (sym_product(e[i], e[k]) + sym_product(je[i], je[k])))
            labels.append(LABEL_MINUS)
    for i in range(m):
        for k in range(i + 1, m):
            tensors.append(0.5 * (sym_product(e[i], je[k]) + sym_product(je[i], e[k])))
            labels.append(LABEL_PLUS)
    for i in range(m):
        for k in range(i + 1, m):
            tensors.append(0.5 * (sym_product(e[i], je[k]) - sym_product(je[i], e[k])))
            labels.append(LABEL_MINUS)
    for i in range(m):
        tensors.append((sym_product(e[i], e[i]) - sym_product(je[i], je[i])) / (2.0 * np.sqrt(2.0)))
        labels.append(LABEL_ALPHA)
    for i in range(m):
        tensors.append(sym_product(e[i], je[i]) / np.sqrt(2.0))
        labels.append(LABEL_ALPHA)
    for k in range(1, m):
        t = float(k) * (sym_product(e[k], e[k]) + sym_product(je[k], je[k]))
        for i in range(k):
            t -= sym_product(e[i], e[i]) + sym_product(je[i], je[i])
        tensors.append(t / np.sqrt(8.0 * k * (k + 1.0)))
        labels.append(LABEL_ETA)
    return Sym2Basis(n, np.array(tensors)), labels


def space_form_components(n, c):
    """Components of constant sectional curvature c in dimension n."""
    dd = np.multiply.outer(np.eye(n), np.eye(n))  # dd[i,k,j,l] = d_ik d_jl
    return float(c) * (dd.transpose(0, 2, 1, 3) - dd.transpose(0, 2, 3, 1))


def kahler_model_components(jm, kappa):
    """Components of constant holomorphic sectional curvature ``4 * kappa``
    adapted to the complex structure matrix ``jm``."""
    dd = np.multiply.outer(np.eye(jm.shape[0]), np.eye(jm.shape[0]))
    jj = np.multiply.outer(jm, jm)
    return float(kappa) * (
        dd.transpose(0, 2, 1, 3)
        - dd.transpose(0, 2, 3, 1)
        + jj.transpose(1, 3, 0, 2)
        - jj.transpose(1, 3, 2, 0)
        + 2.0 * jj.transpose(1, 0, 3, 2)
    )


def _within_detector_tol(value, actual, model):
    dev = float(np.abs(actual - model).max())
    if dev <= DETECTOR_TOL * max(1.0, float(np.abs(actual).max())):
        return value
    return None


def einstein_constant_model(r):
    """rho with Ric = rho * Id within the detector tolerance, else None."""
    ric = ricci(r)
    rho = scalar(r) / r.dim
    return _within_detector_tol(rho, ric, rho * np.eye(r.dim))


def constant_sectional_model(r):
    """c when r equals the checked ``space_form(n, c)``, else None."""
    n = r.dim
    if n < 2:
        return 0.0
    c = scalar(r) / (n * (n - 1))
    return _within_detector_tol(c, r.components, space_form(n, c).components)


def constant_holomorphic_model(r):
    """c when r equals the checked ``kahler_space_form(m, c / 4)``, else
    None; r has even dimension 2m."""
    m = r.dim // 2
    c = 4.0 * scalar(r) / (2 * m * (2 * m + 2))
    return _within_detector_tol(c, r.components, kahler_space_form(m, c / 4.0).components)


def cluster_spectrum_loop(values):
    """Group an ascending list into (value, multiplicity) clusters: an entry
    joins the current cluster unless it lies more than
    ``CLUSTER_REL_TOL * max(1, |previous|)`` above the previous entry."""
    vals = [float(v) for v in values]
    for a, b in zip(vals, vals[1:]):
        if b < a:
            raise InvalidInputError("values must be sorted ascending")
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > CLUSTER_REL_TOL * max(1.0, abs(vals[i - 1])):
            chunk = vals[start:i]
            clusters.append((sum(chunk) / len(chunk), len(chunk)))
            start = i
    return clusters


def f_lemma(values, x):
    """Weighted partial sum of the x smallest values of a multiset.

    On the ascending sort, sums the first floor(x) entries plus the
    fractional remainder times the next one; bounded above by x times the
    mean, with equality below the full count only for constant multisets.
    """
    vals = np.sort(np.asarray(list(values), dtype=float))
    if len(vals) == 0:
        raise InvalidInputError("the multiset must be nonempty")
    return float(weighted_partial_sums(vals, x))


def spectrum_from_eigenvalues(values):
    """Spectrum with the given eigenvalues: the values sorted ascending."""
    return np.sort(np.asarray(list(values), dtype=float))


def negate_spectrum(s):
    """Spectrum of the negated tensor: eigenvalues flipped and re-sorted."""
    return spectrum_from_eigenvalues(-s)


def nonneg_threshold_cumsum(s):
    """Least alpha in [1, N] with g(alpha) >= 0 over the ascending ``s``:
    1.0 when the least value is nonnegative, else the exact root of the
    first segment whose cumulative sum crosses zero, None when none does."""
    if s[0] >= 0.0:
        return 1.0
    c = np.cumsum(s)
    idx = int(np.argmax(c >= 0.0))  # first crossing; 0 when none, as c[0] < 0
    if idx == 0:
        return None
    return float(idx + (-c[idx - 1]) / s[idx])


def check_identities_two_branch(c):
    """Check a tensor ``(n, n, n, n)`` or each tensor of a stack ``(..., n,
    n, n, n)`` as ``curvature.check_identities`` does, by two paths: a stack
    is reduced in one pass with floating-point errors ignored and, if that
    fails, re-checked tensor by tensor; a single tensor is checked under the
    caller's error state."""
    if c.ndim > 4:
        with np.errstate(over="ignore", invalid="ignore"):
            peak = np.abs(c).max(axis=_TENSOR_AXES)
            tol = SYMMETRY_TOL * np.maximum(1.0, peak)
            passed = bool(np.isfinite(peak).all()) and all(
                bool((_largest(residual(c)) <= tol).all()) for _, residual in _IDENTITIES)
        if not passed:
            for tensor in c.reshape((-1,) + c.shape[-4:]):
                check_identities_two_branch(tensor)
        return
    peak = float(np.abs(c).max())
    if not math.isfinite(peak):
        raise InvalidInputError("components must be finite")
    tol = SYMMETRY_TOL * max(1.0, peak)
    for message, residual in _IDENTITIES:
        if float(_largest(residual(c))) > tol:
            raise InvalidInputError(message)


def parse_descriptor_loads(text):
    """A descriptor parsed by ``json.loads`` with the parser's hooks, and
    its errors worded as ``parse_descriptor`` words them."""
    try:
        obj = json.loads(text, parse_constant=descriptors._reject_constant,
                         parse_float=descriptors._finite_float,
                         parse_int=descriptors._finite_int)
        return descriptors._from_obj(obj, "$")
    except json.JSONDecodeError as exc:
        raise descriptors.DescriptorError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise descriptors.DescriptorError("descriptor is nested too deeply to parse") from None


def load_descriptor_text_mode(path):
    """The descriptor of the file at ``path`` read in text mode, UTF-8 with
    universal newlines, and its read errors worded as
    ``cli._load_descriptor`` words them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise descriptors.DescriptorError(f"cannot read descriptor file {path!r}: {exc}") from exc
    return descriptors.parse_descriptor(text)


def signed_qr_families(n, seeds):
    """One orthonormal basis of R^n per seed, one vector per row: the Q of
    ``np.linalg.qr`` of the seed's draws, each column signed by R's
    diagonal (a zero diagonal entry keeps its sign)."""
    q, r = np.linalg.qr(np.array([seeded_stream(seed).standard_normal((n, n)) for seed in seeds]))
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0.0] = 1.0
    q *= signs[:, None, :]
    return np.swapaxes(q, -2, -1)
