"""Independent numpy references for every report the benchmark requests.

Nothing here imports pmlkit.  Each ``check_*`` returns ``None`` when the
report is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

import numpy as np

LN2 = math.log(2.0)
#: leakage and probability tolerance against the references (nats)
TOL = 1e-9
#: partition/function oracles are compared within pmlkit's documented gap
GAP_TOL = 1e-10
#: grid search against the closed form, at the grid sizes the benchmark asks for
GRID_TOL = 1e-6


def _scale(units: str) -> float:
    return 1.0 if units == "nats" else 1.0 / LN2


def _close(got, want, tol=TOL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want))))


def _header_ok(doc: dict, command: str, units: str):
    if doc.get("tool") != "pmlkit" or doc.get("command") != command:
        return f"header names {doc.get('tool')!r}/{doc.get('command')!r}, expected pmlkit/{command}"
    if doc.get("units") != units:
        return f"units {doc.get('units')!r}, expected {units!r}"
    return None


def check_profile_json(text: str, model, units: str):
    doc = json.loads(text)
    bad = _header_ok(doc, "compute", units)
    if bad:
        return bad
    prof = doc["profile"]
    s = _scale(units)
    if prof["outcomes"] != model.outcomes:
        return "profile outcomes differ from the model's alphabet"
    if not _close(prof["leakage"], model.leak * s):
        return "per-outcome leakage differs from log max_x W - log P_Y"
    if not _close(prof["p_y"], model.p_y):
        return "p_y differs from prior @ W"
    maximal = math.log(float(np.sum(np.exp(model.leak) * model.p_y)))
    if not _close(prof["maximal_leakage"], maximal * s):
        return "maximal_leakage differs from log sum_y max_x W"
    if not _close(prof["mean_leakage"], float(model.p_y @ model.leak) * s):
        return "mean_leakage differs from sum_y P_Y leakage"
    return None


def check_profile_csv(text: str, model, units: str):
    lines = text.splitlines()
    if lines[0] != f"outcome,p_y,leakage_{units}":
        return f"CSV header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != model.outcomes:
        return "CSV outcomes differ from the model's alphabet"
    if not _close([float(r[1]) for r in rows], model.p_y):
        return "CSV p_y differs from prior @ W"
    if not _close([float(r[2]) for r in rows], model.leak * _scale(units)):
        return "CSV leakage differs from log max_x W - log P_Y"
    return None


def check_outcome(text: str, model, outcome: str, units: str):
    doc = json.loads(text)
    bad = _header_ok(doc, "compute", units)
    if bad:
        return bad
    j = model.outcomes.index(outcome)
    if doc["outcome"] != outcome:
        return f"outcome {doc['outcome']!r}, expected {outcome!r}"
    if not _close(doc["leakage"], model.leak[j] * _scale(units)):
        return f"leakage of {outcome} differs from the reference"
    return None


def tail_masses(model, eps_nats) -> list:
    return [float(model.p_y[model.leak > e].sum()) for e in eps_nats]


def check_tail_json(text: str, model, eps: list, units: str):
    doc = json.loads(text)
    bad = _header_ok(doc, "tail", units)
    if bad:
        return bad
    s = _scale(units)
    want = tail_masses(model, [e / s for e in eps])
    if [r["eps"] for r in doc["rows"]] != eps:
        return "tail rows do not echo the requested eps values"
    if not _close([r["tail_probability"] for r in doc["rows"]], want):
        return "tail masses differ from sum of P_Y over leakage > eps"
    order = np.argsort(model.leak, kind="stable")
    if not _close(doc["cdf"]["leakage"], model.leak[order] * s):
        return "CDF support differs from the sorted leakage values"
    if not _close(doc["cdf"]["probability"], np.cumsum(model.p_y[order])):
        return "CDF probabilities differ from the cumulative P_Y"
    return None


def check_tail_csv(text: str, model, eps: list, units: str):
    lines = text.splitlines()
    if lines[0] != "eps,tail_probability":
        return f"CSV header {lines[0]!r}"
    rows = [line.split(",") for line in lines[1:]]
    if [float(r[0]) for r in rows] != eps:
        return "tail CSV does not echo the requested eps values"
    want = tail_masses(model, [e / _scale(units) for e in eps])
    if not _close([float(r[1]) for r in rows], want):
        return "tail CSV masses differ from sum of P_Y over leakage > eps"
    return None


def check_verify(text: str, model, oracle: str, params: dict):
    doc = json.loads(text)
    bad = _header_ok(doc, "verify", "nats")
    if bad:
        return bad
    if doc["oracle"] != oracle or doc["all_ok"] is not True:
        return f"verify {oracle}: all_ok is {doc['all_ok']!r}"
    if [r["outcome"] for r in doc["rows"]] != model.outcomes:
        return "verify rows do not cover every outcome"
    pml = np.array([r["pml"] for r in doc["rows"]])
    got = np.array([r["oracle"] for r in doc["rows"]])
    if not _close(pml, model.leak):
        return "verify pml column differs from the reference"
    if not _close([r["p_y"] for r in doc["rows"]], model.p_y):
        return "verify p_y column differs from prior @ W"
    n = model.shape[0]
    if oracle == "subset" or (oracle == "functions" and params["max_groups"] >= n):
        ok = _close(got, model.leak)
    elif oracle == "functions":
        ok = bool(np.all(got <= model.leak + GAP_TOL))
    elif oracle == "partition":
        eps = params["eps"]
        ok = bool(np.all((got <= model.leak + GAP_TOL) & (got >= model.leak - eps - GAP_TOL)))
    else:
        ok = _close(got, model.leak)
    return None if ok else f"verify {oracle}: oracle values outside the expected band"


def closed_form(family: str, params: dict, y: float) -> float:
    """The paper's closed forms, derived here from the densities.

    The Poisson-binomial value is a brute-force maximum over x <= y of the
    exact ratio Binom(y, p)(x) / Pois(lam p)(x), not the simplified form."""
    if family == "additive_gaussian":
        sx2, sn2 = params["sigma_x"] ** 2, params["sigma_n"] ** 2
        return 0.5 * math.log((sx2 + sn2) / sn2) + y * y / (2.0 * (sx2 + sn2))
    if family == "bivariate_gaussian":
        rho = params["rho"]
        return y * y / (2.0 * params["sigma_y"] ** 2) - 0.5 * math.log(1.0 - rho * rho)
    if family == "gaussian_mixture":
        post = 1.0 / (1.0 + math.exp(-abs(2.0 * y - 1.0) / (2.0 * params["sigma"] ** 2)))
        return max(math.log(2.0 * post), 0.0)
    if family == "poisson_binomial":
        lam, p, k = params["lam"], params["p"], int(y)
        mu = lam * p
        best = -math.inf
        for x in range(k + 1):
            log_binom = (math.lgamma(k + 1) - math.lgamma(x + 1) - math.lgamma(k - x + 1)
                         + x * math.log(p) + (k - x) * math.log1p(-p))
            log_pois = -mu + x * math.log(mu) - math.lgamma(x + 1)
            best = max(best, log_binom - log_pois)
        return best
    if family == "geometric_binary":
        p, q = params["p"], params["q"]
        p0 = p * q / (1.0 - (1.0 - p) * q)  # sum_x p (1-p)^(x-1) q^x
        return math.log(q / p0) if y == 0 else math.log(1.0 / (1.0 - p0))
    raise ValueError(f"no reference for family {family!r}")


def check_continuous(text: str, family: str, params: dict, y: float, grid):
    doc = json.loads(text)
    bad = _header_ok(doc, "continuous", "nats")
    if bad:
        return bad
    want = closed_form(family, params, y)
    if doc["family"] != family or doc["outcome"] != y:
        return "continuous report names another family or outcome"
    if not _close(doc["closed_form"], want):
        return f"{family} closed form {doc['closed_form']!r} differs from reference {want!r}"
    if grid is not None:
        check = doc.get("grid_check", {})
        if "value" not in check or abs(check["value"] - want) > GRID_TOL:
            return f"{family} grid search {check!r} is not within {GRID_TOL} of {want!r}"
        if doc["grid"]["points"] != grid["points"]:
            return "grid report does not echo the requested grid"
    return None
