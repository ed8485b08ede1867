"""Independent reference implementations used as test oracles.

Nothing here shares code with the package: fixed-point semantics are
re-derived from two's-complement bit masks on unbounded integers, unitaries
are dense numpy matrices composed with explicit embeddings, probabilities
come from full statevector products, and the reset protocol is enumerated
over every readout-flip pattern.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

WORD = 18
FRAC = 16
MASK = (1 << WORD) - 1
SIGN_BIT = 1 << (WORD - 1)


# -- two's-complement word arithmetic on unbounded integers -----------------

def wrap18(x: int) -> int:
    """Mask to 18 bits, then sign-extend."""
    x &= MASK
    return x - (1 << WORD) if x & SIGN_BIT else x


def fx_add(a: int, b: int) -> int:
    return wrap18(a + b)


def fx_sub(a: int, b: int) -> int:
    return wrap18(a - b)


def fx_neg(a: int) -> int:
    return wrap18(-a)


def fx_mul(a: int, b: int) -> int:
    prod = a * b
    q, r = divmod(abs(prod), 1 << FRAC)   # truncate the magnitude
    scaled = q if prod >= 0 else -q
    return wrap18(scaled)


def int_mul(a: int, b: int) -> int:
    return wrap18(a * b)


def encode(x) -> int:
    """Round-half-even via Fraction arithmetic; None if out of range."""
    scaled = Fraction(x) * (1 << FRAC)
    floor = scaled.numerator // scaled.denominator
    rem = scaled - floor
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2):
        floor += 1
    if not -(1 << 17) <= floor <= (1 << 17) - 1:
        return None
    return floor


def exact_recip(a_raw: int) -> Fraction:
    """Exact reciprocal of the encoded value, in raw-word units."""
    return Fraction(1 << (2 * FRAC), a_raw)


def recip_rel_error(a_raw: int, approx_prewrap: int) -> float:
    exact = exact_recip(a_raw)
    return float(abs(Fraction(approx_prewrap) - exact) / abs(exact))


# -- dense-matrix gate oracle ------------------------------------------------

I2 = np.eye(2)
H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def crz(theta: float) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = rz(theta)
    return out


def eswap(theta: float) -> np.ndarray:
    """exp(-i theta/2 * SWAP), via eigendecomposition of SWAP."""
    vals, vecs = np.linalg.eigh(SWAP)
    return (vecs * np.exp(-0.5j * theta * vals)) @ vecs.conj().T


GATES = {
    "h": lambda th: H.astype(complex),
    "x": lambda th: X,
    "sx": lambda th: SX,
    "rz": rz,
    "crz": crz,
    "eswap": eswap,
    "cnot": lambda th: CNOT,
}


def embed(U: np.ndarray, qubits: list[int], n: int) -> np.ndarray:
    """Embed a k-qubit unitary acting on `qubits` (qubit 0 = MSB)."""
    dim = 1 << n
    k = len(qubits)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = 0
        for q in qubits:
            sub_in = (sub_in << 1) | bits[q]
        for sub_out in range(1 << k):
            amp = U[sub_out, sub_in]
            if amp == 0:
                continue
            out_bits = list(bits)
            for j, q in enumerate(qubits):
                out_bits[q] = (sub_out >> (k - 1 - j)) & 1
            row = 0
            for q in range(n):
                row = (row << 1) | out_bits[q]
            full[row, col] += amp
    return full


def unitary_of_gates(gates, n: int, env: dict | None = None) -> np.ndarray:
    """Compose a straight-line gate list (hir.Gate-like objects) into the
    full unitary.  `env` supplies values (units of pi) for variable angles."""
    U = np.eye(1 << n, dtype=complex)
    for g in gates:
        theta = None
        if g.angle is not None:
            v = env[g.angle] if isinstance(g.angle, str) else g.angle
            theta = v * math.pi
        U = embed(GATES[g.name](theta), list(g.qubits), n) @ U
    return U


def eval_classical_real(instrs, env: dict):
    """Fold straight-line classical arithmetic in exact reals into env."""
    def val(s):
        return env[s] if isinstance(s, str) else float(s)
    for ins in instrs:
        op = getattr(ins, "op", None)
        if op is None:
            continue
        if op == "mul":
            env[ins.dest] = val(ins.srcs[0]) * val(ins.srcs[1])
        elif op == "add":
            env[ins.dest] = val(ins.srcs[0]) + val(ins.srcs[1])
        elif op == "sub":
            env[ins.dest] = val(ins.srcs[0]) - val(ins.srcs[1])
        elif op == "neg":
            env[ins.dest] = -val(ins.srcs[0])
        elif op == "div":
            env[ins.dest] = val(ins.srcs[0]) / val(ins.srcs[1])
        elif op == "recip":
            env[ins.dest] = 1.0 / val(ins.srcs[0])
        else:
            raise ValueError(f"oracle cannot fold {op}")


def phase_aligned_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius distance after removing the optimal global phase."""
    tr = np.trace(A.conj().T @ B)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.linalg.norm(A * phase - B))


def born_probs(state: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(state)) ** 2


def reduced_density(state, n: int, keep: list[int]) -> np.ndarray:
    """Partial trace down to the `keep` qubits (qubit 0 = MSB)."""
    psi = np.asarray(state).reshape([2] * n)
    order = keep + [q for q in range(n) if q not in keep]
    psi = np.transpose(psi, order).reshape(1 << len(keep), -1)
    return psi @ psi.conj().T


# -- active-reset protocol enumeration ---------------------------------------

def active_reset_success_prob(p_flip: float, max_meas: int = 5,
                              required: int = 2, start_one: bool = False) -> float:
    """Probability the protocol reports success, enumerating every readout
    flip pattern.  The qubit is always in a basis state, so readout flips
    are the only randomness."""
    total = 0.0
    for pattern in range(1 << max_meas):
        prob = 1.0
        state = 1 if start_one else 0
        successes = 0
        ok = False
        for j in range(max_meas):
            flip = (pattern >> j) & 1
            prob *= p_flip if flip else 1.0 - p_flip
            reported = state ^ flip
            if reported == 0:
                successes += 1
            else:
                state ^= 1
                successes = 0
            if successes == required:
                ok = True
                # remaining flips are unused; their probabilities sum to 1,
                # so accumulating them all keeps the total correct
        if ok:
            total += prob
    return total


# -- float-precision random-walk oracle ---------------------------------------

C_SHIFT = 1.0 / math.sqrt(math.e)
C_SHRINK = math.sqrt((math.e - 1.0) / math.e)


def rwpe_walk_replay(mu0: float, sigma0: float, outcomes) -> tuple:
    """Replay the walk updates for a given outcome sequence; returns the
    (mu, sigma, phi_inv, t) trajectory (units of pi)."""
    mu, sigma = mu0, sigma0
    traj = []
    for d in outcomes:
        phi_inv = mu - 0.5 * sigma
        t = 1.0 / sigma
        traj.append((mu, sigma, phi_inv, t))
        mu = mu + sigma * C_SHIFT if d else mu - sigma * C_SHIFT
        sigma = sigma * C_SHRINK
    return traj, mu, sigma


def binom_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


# -- two-pass grid refit ------------------------------------------------------

def _grid_update(log_w: np.ndarray, evidence, phis_rad: np.ndarray) -> np.ndarray:
    """Normalised weights after multiplying in each entry's cos^2 / sin^2
    factor, one entry at a time, each log factor floored at -745."""
    total = np.array(log_w, dtype=float)
    for t, phi_inv, d in evidence:
        half = 0.5 * t * (phis_rad - phi_inv)
        factor = np.cos(half) ** 2 if d == 0 else np.sin(half) ** 2
        with np.errstate(divide="ignore"):
            total += np.maximum(np.log(factor), -745.0)
    w = np.exp(total - np.max(total))
    return w / w.sum()


def refit_two_pass(evidences, grid_size: int = 2001,
                   interval: tuple[float, float] = (-1.0, 1.0)):
    """Per-shot and pooled MMSE estimates (doubled scale) from evidence lists
    of (t, phi_inv radians, d).  The per-shot posterior starts from the
    uniform prior; the pooled one folds every record into the previous
    posterior in turn, so each record's factors are evaluated twice."""
    nodes = np.linspace(interval[0], interval[1], grid_size)
    phis = nodes * math.pi
    prior = np.full(grid_size, 1.0 / grid_size)
    per_shot = []
    pooled = prior
    for ev in evidences:
        post = _grid_update(np.log(prior), ev, phis)
        per_shot.append(2.0 * float(np.dot(post, nodes)))
        with np.errstate(divide="ignore"):
            log_pooled = np.where(pooled > 0.0,
                                  np.log(np.maximum(pooled, 1e-300)), -np.inf)
        pooled = _grid_update(log_pooled, ev, phis)
    return per_shot, 2.0 * float(np.dot(pooled, nodes))
