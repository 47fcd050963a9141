"""Cascade models: the reproduction law of (N, A_1, A_2, ...).

A finite-atom model lists every realization of the offspring weights
with its probability, so every expectation downstream is a finite sum.
An Atom holds its N child matrices as one (N, p, p) array of the model's
dtype, made when the law is made (parsed, scaled, tilted); other modules
only reduce over it.  Sampler-backed models (fixed child count, i.i.d.
uniform or lognormal entries) are accepted for simulation only; their
mean matrix is closed-form.  Their parameters are parsed once, into
numbers with the defaults filled in, and a bad one is named.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

WIELANDT = lambda p: p * p - 2 * p + 2  # noqa: E731 - primitivity exponent bound

PROB_SUM_TOL = 1e-9
RHO_TOL = 1e-9


class MatcascadeError(ValueError):
    """Bad input or arguments; the command line exits 2 on it."""


def parses(what):
    """Decorate a document parser so that a document of the wrong shape
    (what indexing, int() and float() raise on it) raises MatcascadeError
    with a one-line reason instead."""
    def decorate(parse):
        @functools.wraps(parse)
        def wrapper(*args, **kwargs):
            try:
                return parse(*args, **kwargs)
            except MatcascadeError:
                raise
            except (AttributeError, LookupError, OverflowError, TypeError,
                    ValueError) as e:
                reason = f"missing key {e}" if isinstance(e, KeyError) else e
                raise MatcascadeError(f"malformed {what}: {reason}") from e
        return wrapper
    return decorate


def read_json(path, what):
    """(bytes, document) of the UTF-8 JSON file at path; MatcascadeError
    naming what if it cannot be read or parsed."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
        return raw, json.loads(raw.decode("utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        raise MatcascadeError(f"cannot read {what}: {e}") from e
    except json.JSONDecodeError as e:
        raise MatcascadeError(f"parse error in {path}: {e}") from e
    except RecursionError:
        raise MatcascadeError(f"parse error in {path}: JSON nested too deeply") from None


@dataclass
class Atom:
    """One realization of (N, A_1, ..., A_N); N is the number of matrices."""

    prob: float
    matrices: np.ndarray  # (N, p, p), of the model's dtype

    @property
    def n_children(self):
        return len(self.matrices)


@dataclass
class CascadeModel:
    p: int
    mode: str  # "finite-atom" | "sampler"
    field_kind: str  # "real" | "complex"
    atoms: list = field(default_factory=list)
    sampler: dict | None = None  # {"family": ..., "params": parsed numbers}
    source_hash: str | None = None

    @property
    def is_complex(self):
        return self.field_kind == "complex"

    def min_offspring(self):
        """essinf N: smallest child count carried with positive probability."""
        self._require_finite_atom()
        return min(a.n_children for a in self.atoms if a.prob > 0)

    def mean_matrix(self):
        """M = E sum_k A_k; absolute values are taken in complex mode.

        In complex mode M is the modulus matrix E sum_k |A_k|, and the
        engine starts from its Perron vector V.  The complex mean
        E sum_k A_k is a different matrix: the martingale has
        E Y_n = (E sum_k A_k)^n V, which is V only when (E sum_k A_k) V = V.
        A sampler law with N children and i.i.d. entries has
        M = N E[entry] J, J the all-ones matrix.
        """
        if self.mode == "sampler":
            family, params = self.sampler["family"], self.sampler["params"]
            try:
                if family == "uniform":
                    entry = (params["low"] + params["high"]) / 2
                else:
                    entry = math.exp(params["mu"] + params["sigma"]**2 / 2)
                mean = params["n_children"] * entry
            except OverflowError:
                mean = math.inf
            if mean == math.inf:
                raise MatcascadeError(f"{family} sampler mean params.n_children * "
                                      "E[entry] overflows the float range")
            try:
                return np.full((self.p, self.p), mean)
            except (MemoryError, ValueError) as e:
                raise MatcascadeError(f"the {self.p} x {self.p} mean matrix "
                                      "cannot be allocated") from e
        from .spectral import moment_matrix  # local import: spectral depends on model

        return moment_matrix(self, 1)

    def content_hash(self):
        """Stable hash of the model content (used to tag sample batches)."""
        if self.source_hash is not None:
            return self.source_hash
        blob = json.dumps(model_to_dict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def _require_finite_atom(self):
        if self.mode != "finite-atom":
            raise MatcascadeError("operation requires a finite-atom model")


def offspring_law(items):
    """Law of the child count N as a dict {n: probability}, over anything
    with prob and n_children: model atoms or walk configurations."""
    law: dict[int, float] = {}
    for item in items:
        law[item.n_children] = law.get(item.n_children, 0.0) + item.prob
    return law


NORM_CONVENTION = "matrix norm: entrywise absolute sum; vector norm: L1"


@dataclass
class ConditionReport:
    # a walk's alpha criterion (C2.4a) is T2.1a of the cascade it builds
    theorem: str  # validation | T2.1a | T2.2 | T2.3a | T2.3b | T6.1 | C2.4b
    verdict: str  # holds | fails | undecided | not-applicable
    quantities: dict = field(default_factory=dict)
    assumptions_checked: list = field(default_factory=list)  # (name, status)
    notes: list = field(default_factory=list)

    def to_dict(self):
        """The report as a row of conditions.json."""
        return {"theorem": self.theorem, "verdict": self.verdict,
                "quantities": self.quantities,
                "assumptions": self.assumptions_checked, "notes": self.notes}


def parse_number(value, what):
    """float(value) for the document field `what`, which must hold a number:
    a string, a boolean or null is refused (TypeError), not converted.
    float() reads the value first, so text it cannot read keeps its message."""
    number = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    return number


def parse_dimension(value):
    """int(value) for the dimension p of a document; a fractional number
    is refused, not truncated, and so is anything but a number."""
    p = int(value)
    if parse_number(value, "dimension p") != p:
        raise MatcascadeError(f"dimension p must be an integer, got {value!r}")
    return p


def _parse_entry(x, complex_mode):
    if isinstance(x, (list, tuple)):
        if not complex_mode:
            raise MatcascadeError("two-element entry in real mode")
        if len(x) != 2:
            raise MatcascadeError("complex entry must be [re, im]")
        return complex(parse_number(x[0], "matrix entry"),
                       parse_number(x[1], "matrix entry"))
    v = parse_number(x, "matrix entry")
    return complex(v, 0.0) if complex_mode else v


def _parse_stack(matrices, p, complex_mode):
    """The (N, p, p) array of an atom's N matrices, allocated once every
    matrix is found to be p x p."""
    shape = (len(matrices), p, p)
    for rows in matrices:
        if len(rows) != p:
            raise MatcascadeError(f"matrix has {len(rows)} rows, expected {p}")
        for row in rows:
            if len(row) != p:
                raise MatcascadeError(
                    f"matrix row has {len(row)} entries, expected {p}")
    stack = np.empty(shape, dtype=complex if complex_mode else float)
    for mat, rows in zip(stack, matrices):
        for i, row in enumerate(rows):
            mat[i] = [_parse_entry(x, complex_mode) for x in row]
    if not np.all(np.isfinite(stack)):
        raise MatcascadeError("non-finite matrix entry")
    if not complex_mode and np.any(stack < 0):
        raise MatcascadeError("negative entry in real mode")
    return stack


# the parameters each sampler family reads besides n_children, with defaults
SAMPLER_DEFAULTS = {"uniform": {"low": 0.0, "high": 1.0},
                    "lognormal": {"mu": 0.0, "sigma": 1.0}}


def _parse_sampler(sampler):
    """{"family": ..., "params": ...} with n_children an int and every other
    parameter the family reads a finite float, defaults filled in."""
    if not isinstance(sampler, dict) or "family" not in sampler:
        raise MatcascadeError("sampler mode requires a sampler spec with a family")
    family = sampler["family"]
    if family not in SAMPLER_DEFAULTS:
        raise MatcascadeError(f"unknown sampler family {family!r}")
    given = {**SAMPLER_DEFAULTS[family], **sampler.get("params", {})}
    params = {}
    for name in ("n_children", *SAMPLER_DEFAULTS[family]):
        try:
            params[name] = parse_number(given[name], f"params.{name}")
        except (TypeError, ValueError, OverflowError):
            params[name] = math.nan
        if not math.isfinite(params[name]):
            raise MatcascadeError(f"sampler params.{name} must be a finite number, "
                                  f"got {given[name]!r}")
    if not (params["n_children"].is_integer() and params["n_children"] >= 1):
        raise MatcascadeError("sampler params.n_children must be an integer >= 1, "
                              f"got {given['n_children']!r}")
    params["n_children"] = int(params["n_children"])
    if family == "uniform" and not 0 <= params["low"] <= params["high"]:
        raise MatcascadeError("sampler requires 0 <= params.low <= params.high, got "
                              f"low={params['low']!r}, high={params['high']!r}")
    if family == "lognormal" and params["sigma"] < 0:
        raise MatcascadeError(
            f"sampler params.sigma must be >= 0, got {params['sigma']!r}")
    return {"family": family, "params": params}


@parses("model")
def model_from_dict(doc, source_hash=None):
    p = parse_dimension(doc["p"])
    mode = doc.get("mode", "finite-atom")
    field_kind = doc.get("field", "real")
    if p < 1:
        raise MatcascadeError("dimension p must be >= 1")
    if field_kind not in ("real", "complex"):
        raise MatcascadeError(f"unknown field {field_kind!r}")
    if mode not in ("finite-atom", "sampler"):
        raise MatcascadeError(f"unknown mode {mode!r}")

    complex_mode = field_kind == "complex"
    if mode == "sampler":
        return CascadeModel(p=p, mode=mode, field_kind=field_kind,
                            sampler=_parse_sampler(doc.get("sampler")),
                            source_hash=source_hash)

    atoms = []
    total = 0.0
    for raw in doc.get("atoms", []):
        prob = parse_number(raw["prob"], "atom prob")
        if not 0.0 < prob <= 1.0:
            raise MatcascadeError(f"atom probability {prob} outside (0, 1]")
        atoms.append(Atom(prob=prob, matrices=_parse_stack(raw["matrices"], p,
                                                           complex_mode)))
        total += prob
    if not atoms:
        raise MatcascadeError("finite-atom model needs at least one atom")
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise MatcascadeError(f"atom probabilities sum to {total!r}, "
                              f"off by more than {PROB_SUM_TOL}")
    if total != 1.0:
        for a in atoms:
            a.prob /= total
    return CascadeModel(p=p, mode=mode, field_kind=field_kind, atoms=atoms,
                        source_hash=source_hash)


def model_to_dict(model):
    doc = {"p": model.p, "field": model.field_kind, "mode": model.mode}
    if model.mode == "sampler":
        doc["sampler"] = model.sampler
        return doc
    # a complex entry is written as its [re, im] pair
    doc["atoms"] = [{"prob": a.prob, "matrices": (
        np.stack([a.matrices.real, a.matrices.imag], axis=-1) if model.is_complex
        else a.matrices).tolist()} for a in model.atoms]
    return doc


def load_model(path):
    """Read a model file (JSON, UTF-8) and return a validated CascadeModel
    whose source_hash is the SHA-256 of the file's bytes."""
    raw, doc = read_json(path, "model")
    return model_from_dict(doc, source_hash=hashlib.sha256(raw).hexdigest())


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=2)
        f.write("\n")


def scale_model(model, c):
    """Multiply every matrix of every atom by the scalar c > 0."""
    model._require_finite_atom()
    if c <= 0:
        raise MatcascadeError("scale factor must be positive")
    atoms = [Atom(prob=a.prob, matrices=c * a.matrices) for a in model.atoms]
    return CascadeModel(p=model.p, mode=model.mode, field_kind=model.field_kind,
                        atoms=atoms)


def primitivity(mat):
    """(is_primitive, exponent) via boolean powers up to the Wielandt bound.

    A nonnegative matrix is primitive when some power is entrywise
    positive; the smallest such power is at most p^2 - 2p + 2.
    """
    b = np.abs(np.asarray(mat)) > 0
    power = b.copy()
    for k in range(1, WIELANDT(mat.shape[0]) + 1):
        if power.all():
            return True, k
        power = (power.astype(np.int64) @ b.astype(np.int64)) > 0
    return False, None


def validate_model(model):
    """Assumption H, that M = E sum_k A_k is primitive (decided by boolean
    powers) with Perron root rho = 1: the validation row of conditions.json."""
    from .spectral import perron

    m = model.mean_matrix()
    primitive, exponent = primitivity(m)
    rho = perron(m).rho if primitive else None
    deviation = abs(rho - 1.0) if primitive else None
    if not primitive:
        verdict = "fails: mean matrix is not primitive"
    elif deviation > RHO_TOL:
        verdict = (f"fails: spectral radius {rho!r} deviates from 1 "
                   f"by {deviation:.3e}; call normalize_model")
    else:
        verdict = "holds"
    return ConditionReport("validation", verdict, {
        "mean_matrix": m.tolist(), "primitive": primitive,
        "primitivity_exponent": exponent, "rho": rho,
        "spectral_radius_deviation": deviation}, notes=[NORM_CONVENTION])


def normalize_model(model):
    """Rescale every weight matrix by 1/rho so the mean matrix has rho = 1."""
    from .spectral import perron

    model._require_finite_atom()
    try:
        rho = perron(model.mean_matrix()).rho
    except MatcascadeError as e:
        raise MatcascadeError(f"cannot normalize: {e}") from e
    return scale_model(model, 1.0 / rho)


def tilt_model(model, t):
    """The real model whose weights are the entrywise t-th powers of the
    weights of model (of their moduli when complex), normalized so that
    its mean matrix, M(t) / rho(M(t)), has rho = 1.

    Its martingale is the tilted one: Y_n is the sum over depth-n nodes
    of the products of t-powered weights along the path, times the
    Perron vector V(t) of M(t), divided by rho(M(t))^n.  At t = 1 model
    itself is returned.  A zero entry with t <= 0 raises MatcascadeError.
    """
    if t == 1:
        return model
    from .spectral import _entry_power

    model._require_finite_atom()
    atoms = [Atom(prob=a.prob,
                  matrices=_entry_power(a.matrices, t, np.empty(a.matrices.shape)))
             for a in model.atoms]
    return normalize_model(CascadeModel(p=model.p, mode=model.mode,
                                        field_kind="real", atoms=atoms))
