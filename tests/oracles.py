"""Independent reference implementations used as test oracles.

Fixed-point semantics are re-derived from two's-complement bit masks on
unbounded integers, unitaries are dense numpy matrices composed with
explicit embeddings, probabilities come from full statevector products,
and the reset protocol is enumerated over every readout-flip pattern.

`interpret` replays one shot of a program the slow way: it walks the
blocks and their terminators, charges each block visit its instructions
plus one step, computes classical ops with the word arithmetic below, and
runs gates, measurements, resets and noise through the statevector model
`QuantumState`, `apply_noise` and `measure`.  Its floating-point operations
and random draws follow the same order as the engine's generated code, so
records and amplitudes must agree exactly.

From the package this module imports only:

- the `hybridsim.hir` node types (`Gate`, `Measure`, `Reset`,
  `ActiveReset`, `Classical`, `Output`, `Br`, `CondBr`, `Ret`), to tell
  the instructions apart;
- the record boxes `FixedQ216` and `Int18` from `hybridsim.fixedpoint`, so
  that a replayed record compares equal to the engine's;
- `recip_raw` and `div_raw` from `hybridsim.fixedpoint`: the table
  reciprocal and division are a hardware specification, not something a
  simpler formula reproduces bit for bit.

Nothing else, and in particular nothing of `hybridsim.sim`, so the
reference never runs the engine it checks.  A test in `test_sim.py`
enforces this list.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from hybridsim.fixedpoint import FixedQ216, Int18, div_raw, recip_raw
from hybridsim.hir import (ActiveReset, Br, Classical, CondBr, Gate, Measure,
                           Output, Reset, Ret)

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


# -- reference statevector model ----------------------------------------------
#
# One operation per call.  Each kernel performs the floating-point
# operations of the engine's generated code in the same order, and `measure`
# and `apply_noise` draw from the shot's generator in the same order.

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_SX_A = 0.5 + 0.5j
_SX_B = 0.5 - 0.5j
_ARITY = {"h": 1, "x": 1, "sx": 1, "rz": 1, "crz": 2, "eswap": 2, "cnot": 2}
NOISELESS_GATES = ("rz",)


def _pairs(n: int, q: int) -> list[tuple[int, int]]:
    """(index with qubit q = 0, partner with q = 1); qubit 0 is the MSB."""
    mask = 1 << (n - 1 - q)
    return [(i, i | mask) for i in range(1 << n) if not i & mask]


def _quads(n: int, a: int, b: int) -> list[tuple[int, int, int, int]]:
    """(i00, i01, i10, i11) over qubits (a, b) with a the first bit."""
    ma = 1 << (n - 1 - a)
    mb = 1 << (n - 1 - b)
    return [(i, i | mb, i | ma, i | ma | mb)
            for i in range(1 << n) if not i & (ma | mb)]


class QuantumState:
    """Normalized complex amplitude vector over n qubits with collapse
    and reset support."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int):
        self.n = n
        self.amps = [0j] * (1 << n)
        self.amps[0] = 1 + 0j

    # -- single-qubit gates -------------------------------------------------

    def h(self, q: int):
        amps = self.amps
        for i0, i1 in _pairs(self.n, q):
            a0, a1 = amps[i0], amps[i1]
            amps[i0] = (a0 + a1) * _SQRT_HALF
            amps[i1] = (a0 - a1) * _SQRT_HALF

    def x(self, q: int):
        amps = self.amps
        for i0, i1 in _pairs(self.n, q):
            amps[i0], amps[i1] = amps[i1], amps[i0]

    def sx(self, q: int):
        amps = self.amps
        for i0, i1 in _pairs(self.n, q):
            a0, a1 = amps[i0], amps[i1]
            amps[i0] = _SX_A * a0 + _SX_B * a1
            amps[i1] = _SX_B * a0 + _SX_A * a1

    def rz(self, q: int, theta: float):
        p1 = complex(math.cos(0.5 * theta), math.sin(0.5 * theta))
        p0 = p1.conjugate()
        amps = self.amps
        for i0, i1 in _pairs(self.n, q):
            amps[i0] *= p0
            amps[i1] *= p1

    def pauli(self, q: int, which: int):
        """which: 1 = X, 2 = Y, 3 = Z."""
        amps = self.amps
        if which == 1:
            self.x(q)
        elif which == 2:
            for i0, i1 in _pairs(self.n, q):
                a0, a1 = amps[i0], amps[i1]
                amps[i0] = -1j * a1
                amps[i1] = 1j * a0
        else:
            for _, i1 in _pairs(self.n, q):
                amps[i1] = -amps[i1]

    # -- two-qubit gates ----------------------------------------------------

    def crz(self, c: int, t: int, theta: float):
        p1 = complex(math.cos(0.5 * theta), math.sin(0.5 * theta))
        p0 = p1.conjugate()
        amps = self.amps
        for _, _, i10, i11 in _quads(self.n, c, t):
            amps[i10] *= p0
            amps[i11] *= p1

    def eswap(self, a: int, b: int, theta: float):
        half = 0.5 * theta
        corner = complex(math.cos(half), -math.sin(half))   # e^{-i theta/2}
        cc = math.cos(half)
        ss = -1j * math.sin(half)
        amps = self.amps
        for i00, i01, i10, i11 in _quads(self.n, a, b):
            amps[i00] *= corner
            amps[i11] *= corner
            a01, a10 = amps[i01], amps[i10]
            amps[i01] = cc * a01 + ss * a10
            amps[i10] = ss * a01 + cc * a10

    def cnot(self, c: int, t: int):
        amps = self.amps
        for _, _, i10, i11 in _quads(self.n, c, t):
            amps[i10], amps[i11] = amps[i11], amps[i10]

    # -- measurement and reset ----------------------------------------------

    def born_p1(self, q: int) -> float:
        amps = self.amps
        total = 0.0
        for _, i1 in _pairs(self.n, q):
            a = amps[i1]
            total += a.real * a.real + a.imag * a.imag
        return total

    def measure(self, q: int, rng) -> int:
        p1 = self.born_p1(q)
        outcome = 1 if rng.random() < p1 else 0
        amps = self.amps
        keep = p1 if outcome else 1.0 - p1
        scale = 1.0 / math.sqrt(keep) if keep > 0.0 else 1.0
        for i0, i1 in _pairs(self.n, q):
            if outcome:
                amps[i0] = 0j
                amps[i1] *= scale
            else:
                amps[i1] = 0j
                amps[i0] *= scale
        return outcome

    def reset(self, q: int, rng):
        if self.measure(q, rng):
            self.x(q)

    # -- generic entry points -----------------------------------------------

    def apply_gate(self, gate: str, qubits, angle: float | None = None):
        """Apply a named gate; `angle` is in radians."""
        qs = tuple(qubits)
        arity = _ARITY.get(gate)
        if arity is None:
            raise ValueError(f"unknown gate {gate!r}")
        if len(qs) != arity or len(set(qs)) != len(qs) or \
                any(not (0 <= q < self.n) for q in qs):
            raise ValueError(f"bad qubits {qs} for {gate} on {self.n} qubits")
        if angle is None:
            getattr(self, gate)(*qs)
        else:
            getattr(self, gate)(*qs, angle)

    def norm_sq(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self.amps)


def apply_noise(state: QuantumState, gate: str, qubits, rng, noise) -> None:
    """Depolarizing draw after one gate: with the class probability, apply a
    uniformly random non-identity Pauli on the touched qubits.  `rz` is
    virtual and draws nothing."""
    if gate in NOISELESS_GATES:
        return
    if len(qubits) == 1:
        if rng.random() < noise.p_gate1:
            state.pauli(qubits[0], 1 + rng.randrange(3))
    else:
        if rng.random() < noise.p_gate2:
            m = 1 + rng.randrange(15)
            ka, kb = m >> 2, m & 3      # high two bits on a, low two on b
            if ka:
                state.pauli(qubits[0], ka)
            if kb:
                state.pauli(qubits[1], kb)


def measure(state: QuantumState, q: int, rng, noise=None) -> int:
    """Projective measurement returning the *reported* bit: the collapse
    follows the true outcome; with noise, the report flips with p_readout."""
    bit = state.measure(q, rng)
    if noise is not None and rng.random() < noise.p_readout:
        bit ^= 1
    return bit


# -- reference interpreter ------------------------------------------------------

class OutOfSteps(Exception):
    """`interpret` ran past its step limit."""


def _fx_recip(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("reciprocal of zero")
    return recip_raw(a)


def _fx_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero")
    return div_raw(a, b)


# (op, operand kind) -> word function.  Real-mode division by zero raises
# ZeroDivisionError by itself; the fixed-mode ops are guarded to match.
_FIXED_OPS = {
    ("add", "fixed"): fx_add, ("add", "int18"): fx_add,
    ("sub", "fixed"): fx_sub, ("sub", "int18"): fx_sub,
    ("neg", "fixed"): fx_neg, ("neg", "int18"): fx_neg,
    ("mul", "fixed"): fx_mul, ("mul", "int18"): int_mul,
    ("recip", "fixed"): _fx_recip, ("div", "fixed"): _fx_div,
}
_REAL_OPS = {
    **{("add", k): lambda a, b: a + b for k in ("fixed", "int18")},
    **{("sub", k): lambda a, b: a - b for k in ("fixed", "int18")},
    **{("mul", k): lambda a, b: a * b for k in ("fixed", "int18")},
    **{("neg", k): lambda a: -a for k in ("fixed", "int18")},
    ("recip", "fixed"): lambda a: 1.0 / a,
    ("div", "fixed"): lambda a, b: a / b,
}


def _bare(v):
    return v


def interpret(proc, mode: str, noise, rng, step_limit: int):
    """Run one shot of `proc` in classical mode "real" or "fixed", with
    `noise` (an object with p_gate1, p_gate2 and p_readout, or None),
    drawing from `rng`.  Returns (outputs, evidence, amplitudes, steps).

    Raises ZeroDivisionError on a zero divisor and OutOfSteps once the
    steps charged exceed `step_limit`."""
    if mode not in ("real", "fixed"):
        raise ValueError(f"unknown classical mode {mode!r}")
    fixed = mode == "fixed"
    ops = _FIXED_OPS if fixed else _REAL_OPS
    box = {"bit": _bare, "int18": Int18, "fixed": FixedQ216} if fixed else \
        {"bit": _bare, "int18": _bare, "fixed": _bare}
    kinds = {d.name: d.kind for d in proc.decls}

    def word(tok, kind):
        if isinstance(tok, str):
            return regs[tok]
        if kind == "fixed":
            return encode(float(tok)) if fixed else float(tok)
        return int(tok)

    def radians(tok):
        w = word(tok, "fixed")
        return (w / (1 << FRAC)) * math.pi if fixed else math.pi * w

    def boxed(name):
        return box[kinds[name]](regs[name])

    regs = {d.name: word(d.init, d.kind) for d in proc.decls}
    state = QuantumState(proc.qubits)
    blocks = {b.label: b for b in proc.blocks}
    outputs, evidence = [], []
    steps = 0
    block = proc.blocks[0]
    while True:
        steps += len(block.instructions) + 1
        if steps > step_limit:
            raise OutOfSteps(f"{steps} steps at block {block.label}")
        for ins in block.instructions:
            if isinstance(ins, Gate):
                angle = None if ins.angle is None else radians(ins.angle)
                state.apply_gate(ins.name, ins.qubits, angle)
                if noise is not None:
                    apply_noise(state, ins.name, ins.qubits, rng, noise)
            elif isinstance(ins, Measure):
                regs[ins.dest] = measure(state, ins.qubit, rng, noise)
                if ins.record is not None:
                    t, phi_inv = ins.record
                    evidence.append((boxed(t), boxed(phi_inv), regs[ins.dest]))
            elif isinstance(ins, Reset):
                state.reset(ins.qubit, rng)
            elif isinstance(ins, ActiveReset):
                for q in range(proc.qubits):
                    state.reset(q, rng)
            elif isinstance(ins, Output):
                outputs.append((ins.name, boxed(ins.name)))
            elif isinstance(ins, Classical):
                regs[ins.dest] = _classical(ins, kinds, word, ops)
            else:
                raise ValueError(f"cannot interpret {ins!r}")
        term = block.terminator
        if isinstance(term, Br):
            block = blocks[term.target]
        elif isinstance(term, CondBr):
            block = blocks[term.then_target if regs[term.cond]
                           else term.else_target]
        elif isinstance(term, Ret):
            outputs += [(v, boxed(v)) for v in term.values]
            return tuple(outputs), tuple(evidence), state.amps, steps
        else:
            raise ValueError(f"cannot interpret {term!r}")


def _classical(ins, kinds, word, ops):
    """The new word of `ins.dest`."""
    if ins.op in ("cmp_eq", "cmp_lt"):
        var = [kinds[s] for s in ins.srcs if isinstance(s, str)]
        k = var[0] if var else \
            "fixed" if any(isinstance(s, float) for s in ins.srcs) else "int18"
        a, b = (word(s, k) for s in ins.srcs)
        return int(a == b) if ins.op == "cmp_eq" else int(a < b)
    if ins.op == "select":
        c, a, b = ins.srcs
        return word(a if word(c, "bit") else b, kinds[ins.dest])
    k = kinds[ins.dest]
    return ops[ins.op, k](*(word(s, k) for s in ins.srcs))
