"""Cascade models: the reproduction law of (N, A_1, A_2, ...).

A finite-atom model lists every realization of the offspring weights
with its probability, so every expectation downstream is a finite sum.
Sampler-backed models (fixed child count, i.i.d. uniform or lognormal
entries) are accepted for simulation only; their mean matrix is closed-form.
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


class ModelError(MatcascadeError):
    """Malformed model file or contract violation."""


def parses(error, what):
    """Decorate a document parser so that a document of the wrong shape
    (what indexing, int() and float() raise on it) raises error with a
    one-line reason instead."""
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
                raise error(f"malformed {what}: {reason}") from e
        return wrapper
    return decorate


def read_json(path, what, error):
    """(bytes, document) of the UTF-8 JSON file at path; error naming what
    if it cannot be read or parsed."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
        return raw, json.loads(raw.decode("utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"cannot read {what}: {e}") from e
    except json.JSONDecodeError as e:
        raise error(f"parse error in {path}: {e}") from e


@dataclass
class Atom:
    """One realization of (N, A_1, ..., A_N); N is the number of matrices."""

    prob: float
    matrices: list  # list of (p, p) ndarrays

    @property
    def n_children(self):
        return len(self.matrices)


@dataclass
class CascadeModel:
    p: int
    mode: str  # "finite-atom" | "sampler"
    field_kind: str  # "real" | "complex"
    atoms: list = field(default_factory=list)
    sampler: dict | None = None
    source_hash: str | None = None

    @property
    def is_complex(self):
        return self.field_kind == "complex"

    def mean_offspring(self):
        """E N for finite-atom laws."""
        self._require_finite_atom()
        return sum(a.prob * a.n_children for a in self.atoms)

    def offspring_probabilities(self):
        """Law of N as a dict {n: probability}."""
        self._require_finite_atom()
        law: dict[int, float] = {}
        for a in self.atoms:
            law[a.n_children] = law.get(a.n_children, 0.0) + a.prob
        return law

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
            params = self.sampler.get("params", {})
            if self.sampler["family"] == "uniform":
                entry = (float(params.get("low", 0.0))
                         + float(params.get("high", 1.0))) / 2
            else:
                log_entry = (float(params.get("mu", 0.0))
                             + float(params.get("sigma", 1.0))**2 / 2)
                try:
                    entry = math.exp(log_entry)
                except OverflowError:
                    raise ModelError(f"lognormal sampler mean exp({log_entry!r}) "
                                     "overflows the float range") from None
            return np.full((self.p, self.p), int(params["n_children"]) * entry)
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
            raise ModelError("operation requires a finite-atom model")


@dataclass
class ValidationReport:
    mean_matrix: np.ndarray
    primitive: bool
    primitivity_exponent: int | None
    perron: "PerronTriple | None"
    spectral_radius_deviation: float | None
    assumption_h: str  # "holds" or "fails: <reason>"
    norm_convention: str = "matrix norm: entrywise absolute sum; vector norm: L1"

    @property
    def holds(self):
        return self.assumption_h == "holds"


def _parse_entry(x, complex_mode):
    if isinstance(x, (list, tuple)):
        if not complex_mode:
            raise ModelError("two-element entry in real mode")
        if len(x) != 2:
            raise ModelError("complex entry must be [re, im]")
        return complex(float(x[0]), float(x[1]))
    v = float(x)
    return complex(v, 0.0) if complex_mode else v


def _parse_matrix(rows, p, complex_mode):
    if len(rows) != p:
        raise ModelError(f"matrix has {len(rows)} rows, expected {p}")
    mat = np.empty((p, p), dtype=complex if complex_mode else float)
    for i, row in enumerate(rows):
        if len(row) != p:
            raise ModelError(f"matrix row has {len(row)} entries, expected {p}")
        for j, x in enumerate(row):
            mat[i, j] = _parse_entry(x, complex_mode)
    if not np.all(np.isfinite(mat)):
        raise ModelError("non-finite matrix entry")
    if not complex_mode and np.any(mat < 0):
        raise ModelError("negative entry in real mode")
    return mat


@parses(ModelError, "model")
def model_from_dict(doc, source_hash=None):
    p = int(doc["p"])
    mode = doc.get("mode", "finite-atom")
    field_kind = doc.get("field", "real")
    if p < 1:
        raise ModelError("dimension p must be >= 1")
    if field_kind not in ("real", "complex"):
        raise ModelError(f"unknown field {field_kind!r}")
    if mode not in ("finite-atom", "sampler"):
        raise ModelError(f"unknown mode {mode!r}")

    complex_mode = field_kind == "complex"
    if mode == "sampler":
        sampler = doc.get("sampler")
        if not isinstance(sampler, dict) or "family" not in sampler:
            raise ModelError("sampler mode requires a sampler spec with a family")
        if sampler["family"] not in ("lognormal", "uniform"):
            raise ModelError(f"unknown sampler family {sampler['family']!r}")
        params = sampler.get("params", {})
        if int(params.get("n_children", 0)) < 1:
            raise ModelError("sampler requires params.n_children >= 1")
        if float(params.get("low", 0.0)) < 0 or float(params.get("sigma", 1.0)) < 0:
            raise ModelError("sampler requires params.low >= 0 and params.sigma >= 0")
        return CascadeModel(p=p, mode=mode, field_kind=field_kind,
                            sampler=sampler, source_hash=source_hash)

    atoms = []
    total = 0.0
    for raw in doc.get("atoms", []):
        prob = float(raw["prob"])
        if not 0.0 < prob <= 1.0:
            raise ModelError(f"atom probability {prob} outside (0, 1]")
        mats = [_parse_matrix(rows, p, complex_mode) for rows in raw["matrices"]]
        atoms.append(Atom(prob=prob, matrices=mats))
        total += prob
    if not atoms:
        raise ModelError("finite-atom model needs at least one atom")
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ModelError(f"atom probabilities sum to {total!r}, off by more than {PROB_SUM_TOL}")
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
    doc["atoms"] = []
    for a in model.atoms:
        mats = []
        for m in a.matrices:
            if model.is_complex:
                mats.append([[[x.real, x.imag] for x in row] for row in m])
            else:
                mats.append([[float(x) for x in row] for row in m])
        doc["atoms"].append({"prob": a.prob, "matrices": mats})
    return doc


def load_model(path):
    """Read a model file (JSON, UTF-8) and return a validated CascadeModel
    whose source_hash is the SHA-256 of the file's bytes."""
    raw, doc = read_json(path, "model", ModelError)
    return model_from_dict(doc, source_hash=hashlib.sha256(raw).hexdigest())


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, indent=2)
        f.write("\n")


def scale_model(model, c):
    """Multiply every matrix of every atom by the scalar c > 0."""
    model._require_finite_atom()
    if c <= 0:
        raise ModelError("scale factor must be positive")
    atoms = [Atom(prob=a.prob, matrices=[c * m for m in a.matrices])
             for a in model.atoms]
    return CascadeModel(p=model.p, mode=model.mode, field_kind=model.field_kind,
                        atoms=atoms)


def primitivity(mat, max_exponent=None):
    """(is_primitive, exponent) via boolean powers up to the Wielandt bound.

    A nonnegative matrix is primitive when some power is entrywise
    positive; the smallest such power is at most p^2 - 2p + 2.
    """
    p = mat.shape[0]
    if max_exponent is None:
        max_exponent = max(WIELANDT(p), 1)
    b = np.abs(np.asarray(mat)) > 0
    power = b.copy()
    for k in range(1, max_exponent + 1):
        if power.all():
            return True, k
        power = (power.astype(np.int64) @ b.astype(np.int64)) > 0
    return False, None


def validate_model(model):
    """Check the standing spectral assumption on the mean matrix.

    Builds M = E sum_k A_k exactly, decides primitivity by boolean powers,
    attaches Perron data, and reports whether the maximal eigenvalue
    equals 1.
    """
    from .spectral import perron

    m = model.mean_matrix()
    primitive, exponent = primitivity(m)
    if not primitive:
        return ValidationReport(
            mean_matrix=m, primitive=False, primitivity_exponent=None,
            perron=None, spectral_radius_deviation=None,
            assumption_h="fails: mean matrix is not primitive")

    triple = perron(m)
    deviation = abs(triple.rho - 1.0)
    if deviation > RHO_TOL:
        verdict = (f"fails: spectral radius {triple.rho!r} deviates from 1 "
                   f"by {deviation:.3e}; call normalize_model")
    else:
        verdict = "holds"
    return ValidationReport(
        mean_matrix=m, primitive=True, primitivity_exponent=exponent,
        perron=triple, spectral_radius_deviation=deviation,
        assumption_h=verdict)


def normalize_model(model):
    """Rescale every weight matrix by 1/rho so the mean matrix has rho = 1."""
    from .spectral import perron

    model._require_finite_atom()
    m = model.mean_matrix()
    primitive, _ = primitivity(m)
    if not primitive:
        raise ModelError("cannot normalize: mean matrix is not primitive")
    rho = perron(m).rho
    if rho <= 0:
        raise ModelError("cannot normalize: zero spectral radius")
    return scale_model(model, 1.0 / rho)
