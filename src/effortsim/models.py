"""Regression models: least squares, ridge, CART, penalized linear, MLP.

Every fitted model remembers the feature names it was trained on and, at
prediction time, pulls exactly those columns (by name, in fit order) out
of whatever population it is given. That lets models trained on a
restricted feature set and models trained on the full set be compared on
one and the same population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import DataError, FeatureSchema, Population
from .effort import EffortParams, _distinct_rows, benefit_value

JITTER = 1e-8


class Predictor:
    """Common interface: named features in, finite predictions out."""

    kind: str = "base"

    def __init__(self, feature_names: Sequence[str], hyperparameters: Mapping | None = None):
        self.feature_names: tuple[str, ...] = tuple(feature_names)
        self.hyperparameters: dict = dict(hyperparameters or {})
        self._columns: tuple[FeatureSchema, list[int]] | None = None

    def _column_indices(self, schema: FeatureSchema) -> list[int]:
        """Schema column of each model feature, in fit order."""
        if self._columns is None or self._columns[0] is not schema:
            self._columns = (schema, [schema.index(name) for name in self.feature_names])
        return self._columns[1]

    def _design(self, schema: FeatureSchema, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        return X[:, self._column_indices(schema)]

    def predict_rows(self, schema: FeatureSchema, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, pop: Population) -> np.ndarray:
        return self.predict_rows(pop.schema, pop.X)

    def imitation_block(self, schema: FeatureSchema, X: np.ndarray):
        """Predictions of every imitation target among the rows of ``X``.

        The target of row i imitating row j keeps i's non-mutable entries
        and takes j's mutable ones. Returns ``block(rows, out=None)``: for
        an index array ``rows``, the ``(len(rows), n)`` array (written into
        ``out`` when given) whose entry ``(r, j)`` is the prediction for row
        ``rows[r]`` imitating row j; entry ``(r, rows[r])`` is that row's own
        prediction. This fallback predicts one rewritten target matrix per
        row; subclasses whose form separates build their factors once per
        call.
        """
        X = np.asarray(X, dtype=np.float64)
        frozen = ~schema.mutable_mask
        targets = X.copy()  # row j: j's mutable entries, the current row's others

        def block(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            if out is None:
                out = np.empty((rows.shape[0], X.shape[0]))
            for r, i in enumerate(rows):
                targets[:, frozen] = X[i, frozen]
                out[r] = self.predict_rows(schema, targets)
            return out

        return block

    def to_dict(self) -> dict:
        raise NotImplementedError


class LinearPredictor(Predictor):
    """w . x + intercept; also the shape of ridge and penalized fits."""

    def __init__(self, feature_names, weights, intercept, kind="linear", hyperparameters=None):
        super().__init__(feature_names, hyperparameters)
        self.kind = kind
        self.weights = np.asarray(weights, dtype=np.float64)
        self.intercept = float(intercept)
        if self.weights.shape != (len(self.feature_names),):
            raise DataError("weight vector length must match feature list")

    def predict_rows(self, schema: FeatureSchema, X: np.ndarray) -> np.ndarray:
        return self._design(schema, X) @ self.weights + self.intercept

    def imitation_block(self, schema: FeatureSchema, X: np.ndarray):
        """Outer sum ``own[i] + cand[j]``: non-mutable part plus intercept, mutable part.

        Both factors accumulate ``w * x`` feature by feature in model order
        with elementwise ops, so equal rows get equal bits wherever they
        sit and self-imitation predicts exactly the diagonal value.
        """
        X = np.asarray(X, dtype=np.float64)
        own = np.zeros(X.shape[0])
        cand = np.zeros(X.shape[0])
        for w, k in zip(self.weights, self._column_indices(schema)):
            acc = cand if schema.features[k].mutable else own
            acc += w * X[:, k]
        own += self.intercept

        def block(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            return np.add(own[rows, None], cand[None, :], out=out)

        return block

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "features": list(self.feature_names),
            "weights": [float(w) for w in self.weights],
            "intercept": self.intercept,
            "hyperparameters": self.hyperparameters,
        }


class TreePredictor(Predictor):
    """Binary regression tree stored as a list of node dicts.

    Node i: ``nodes[i]["feature"]`` < 0 marks a leaf predicting
    ``nodes[i]["value"]``; otherwise rows with column value <=
    ``nodes[i]["threshold"]`` go to node ``nodes[i]["left"]``, the rest to
    ``nodes[i]["right"]``.
    """

    kind = "tree"

    def __init__(self, feature_names, nodes, hyperparameters=None):
        super().__init__(feature_names, hyperparameters)
        self.nodes = nodes  # list of dicts: feature, threshold, left, right, value

    def _leaves(self, D: np.ndarray, narrows_cand: np.ndarray):
        """Yield ``(value, own, cand)`` per leaf: two masks over the rows of ``D`` that pass its path.

        A test on a design column with ``narrows_cand`` set narrows ``cand``,
        any other test narrows ``own``.
        """
        everyone = np.ones(D.shape[0], dtype=bool)
        stack = [(0, everyone, everyone)]
        while stack:
            node_id, own, cand = stack.pop()
            node = self.nodes[node_id]
            k = node["feature"]
            if k < 0:
                yield node["value"], own, cand
                continue
            left = D[:, k] <= node["threshold"]
            if narrows_cand[k]:
                stack.append((node["left"], own, cand & left))
                stack.append((node["right"], own, cand & ~left))
            else:
                stack.append((node["left"], own & left, cand))
                stack.append((node["right"], own & ~left, cand))

    def predict_rows(self, schema: FeatureSchema, X: np.ndarray) -> np.ndarray:
        D = self._design(schema, X)
        out = np.empty(D.shape[0])
        for value, own, _ in self._leaves(D, np.zeros(D.shape[1], dtype=bool)):
            out[own] = value
        return out

    def imitation_block(self, schema: FeatureSchema, X: np.ndarray):
        """A gather from the table of leaf values over (own pattern, candidate pattern).

        ``_leaves`` narrows, per leaf, a mask of rows i whose non-mutable
        entries pass the path's tests and a mask of rows j whose mutable
        entries do. A row's own pattern is the set of leaves its first masks
        allow, its candidate pattern the set its second masks allow, and
        exactly one leaf lies in both sets of any pair. ``table[p, c]`` holds
        that leaf's value for each pair of distinct patterns, and a tile is
        one ``np.take`` from the table's rows of its own patterns, so every
        entry is a copied leaf value, as ``predict_rows`` writes it. No BLAS
        routine runs. A table of more entries than two (n, L) matrices falls
        back to the per-row predictions.
        """
        D = self._design(schema, X)
        mutable = schema.mutable_mask[self._column_indices(schema)]
        values, own, cand = zip(*self._leaves(D, mutable))
        own_first, own_code = _distinct_rows(np.packbits(np.column_stack(own), axis=1))
        cand_first, cand_code = _distinct_rows(np.packbits(np.column_stack(cand), axis=1))
        if own_first.shape[0] * cand_first.shape[0] > 2 * D.shape[0] * len(values):
            return super().imitation_block(schema, X)
        table = np.empty((own_first.shape[0], cand_first.shape[0]))
        for value, o, c in zip(values, own, cand):
            table[np.ix_(o[own_first], c[cand_first])] = value

        def block(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            return np.take(table[own_code[rows]], cand_code, axis=1, out=out, mode="clip")

        return block

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "features": list(self.feature_names),
            "nodes": self.nodes,
            "hyperparameters": self.hyperparameters,
        }


@dataclass(frozen=True)
class FitReport:
    model_kind: str
    hyperparameters: dict
    mae_overall: float
    mae_per_group: dict

    def to_dict(self) -> dict:
        return {
            "model_kind": self.model_kind,
            "hyperparameters": self.hyperparameters,
            "mae_overall": self.mae_overall,
            "mae_per_group": self.mae_per_group,
        }


def _design_with_intercept(pop: Population) -> np.ndarray:
    return np.column_stack([pop.X, np.ones(pop.size)])


def _solve_least_squares(
    A: np.ndarray, y: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Normal equations with an unpenalized intercept (last column).

    Returns (coefficients, the matrix they solve, jitter_used). A singular
    system at lam == 0 falls back to adding 1e-8 to the whole diagonal; one
    that is still singular, or gives non-finite coefficients, is a
    ``DataError``.
    """
    G = A.T @ A
    if lam:
        penalty = np.full(A.shape[1], float(lam))
        penalty[-1] = 0.0
        G = G + np.diag(penalty)
    b = A.T @ y
    scale = max(float(np.abs(b).max()), 1.0)  # b holds the intercept's entry at least
    for jitter_used in (False, True):
        if jitter_used:
            G = G + JITTER * np.eye(A.shape[1])
        try:
            w = np.linalg.solve(G, b)
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(w)) and (jitter_used or float(np.abs(G @ w - b).max()) <= 1e-6 * scale):
            return w, G, jitter_used
    raise DataError("least-squares fit failed: the normal equations are singular or overflow")


def fit_ridge(pop: Population, lam: float) -> LinearPredictor:
    """Closed-form ridge; ``lam == 0`` is exactly ordinary least squares."""
    if lam < 0:
        raise DataError(f"ridge penalty must be >= 0, got {lam}")
    A = _design_with_intercept(pop)
    w, _, jitter_used = _solve_least_squares(A, pop.y, lam)
    hyper: dict = {"lambda": float(lam)}
    if jitter_used:
        hyper["jitter"] = JITTER
    kind = "ridge" if lam else "linear"
    return LinearPredictor(pop.schema.names, w[:-1], w[-1], kind=kind, hyperparameters=hyper)


def fit_linear(pop: Population) -> LinearPredictor:
    return fit_ridge(pop, 0.0)


def _node_sse(y_sum, y_sq, n):
    """Sum of squared deviations from the sums of y and y²; elementwise on arrays."""
    return y_sq - y_sum * y_sum / n


def _best_split(D: np.ndarray, y: np.ndarray) -> tuple[int, float, float] | None:
    """Exhaustive midpoint scan; returns (feature, threshold, child SSE).

    Each feature scores every split position between distinct sorted
    values at once; ``argmin`` keeps the first (lowest threshold) of equal
    scores, and a later feature wins only with a strictly lower one.
    """
    n = y.shape[0]
    best: tuple[float, int, float] | None = None  # (sse, feature, threshold)
    for k in range(D.shape[1]):
        order = np.argsort(D[:, k], kind="stable")
        xs = D[order, k]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        distinct = np.flatnonzero(xs[1:] != xs[:-1])  # split after position i
        if distinct.size == 0:
            continue
        nl = distinct + 1
        ls, lq = csum[distinct], csq[distinct]
        rs, rq = csum[-1] - ls, csq[-1] - lq
        sse = _node_sse(ls, lq, nl) + _node_sse(rs, rq, n - nl)
        p = int(np.argmin(sse))
        if best is None or sse[p] < best[0]:
            i = distinct[p]
            best = (sse[p], k, (xs[i] + xs[i + 1]) / 2.0)
    if best is None:
        return None
    return best[1], best[2], best[0]


def fit_tree(pop: Population, max_depth: int = 5) -> TreePredictor:
    """Greedy CART minimizing child SSE, splitting only while it helps.

    Tie-breaking is lowest feature index, then lowest threshold (the scan
    order), so fits are deterministic.
    """
    if max_depth < 0:
        raise DataError("max_depth must be >= 0")
    D = pop.X
    y = pop.y
    nodes: list[dict] = []

    def build(rows: np.ndarray, depth: int) -> int:
        node_id = len(nodes)
        ys = y[rows]
        node = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": float(np.mean(ys))}
        nodes.append(node)  # a leaf unless a split below helps
        if depth < max_depth and rows.size >= 2 and not np.all(ys == ys[0]):
            found = _best_split(D[rows], ys)
            node_sse = _node_sse(float(np.sum(ys)), float(np.sum(ys * ys)), rows.size)
            if found is not None and found[2] < node_sse:
                k, thr, _ = found
                mask = D[rows, k] <= thr
                left, right = build(rows[mask], depth + 1), build(rows[~mask], depth + 1)
                node.update(feature=int(k), threshold=float(thr), left=left, right=right)
        return node_id

    build(np.arange(pop.size), 0)
    return TreePredictor(pop.schema.names, nodes, {"max_depth": int(max_depth)})


def _majority_minus_minority(values: np.ndarray, pop: Population, minority: str) -> np.ndarray:
    """Mean of ``values`` over the non-minority rows minus the minority's, along axis 0."""
    min_rows = pop.group_rows(minority)
    maj_rows = np.setdiff1d(np.arange(pop.size), min_rows)
    return np.mean(values[maj_rows], axis=0) - np.mean(values[min_rows], axis=0)


def group_benefit_gap(h: Predictor, pop: Population, params: EffortParams, minority: str) -> float:
    """Mean benefit of the non-minority group minus the minority's.

    The benefit is ``params.benefit``, before risk aversion.
    """
    bene = benefit_value(params.benefit, pop.y, h.predict(pop))
    return float(_majority_minus_minority(bene, pop, minority))


def fit_constrained_linear(
    pop: Population,
    tau: float,
    params: EffortParams,
    minority: str | None = None,
) -> LinearPredictor:
    """Least squares plus ``tau * max(0, majority minus minority benefit)``, solved exactly.

    The benefit is ``params.benefit``, before risk aversion. Both benefit
    forms are linear in the prediction with slope 1, so the gap is affine
    in the weights, ``g(w) = c . w + g0``, with ``c`` the
    majority-minus-minority mean design row. The objective is a convex
    quadratic plus a hinge, so its minimiser lies on the ray
    ``w0 - mu * G^-1 c`` from the least-squares solution ``w0`` (``G`` the
    normal matrix it was solved with). ``mu`` is 0 when ``tau == 0`` or
    ``g(w0) <= 0``, which returns ``w0`` unchanged; otherwise it is the
    smaller of ``tau * n / 2`` (the hinge stays active) and the step that
    closes the gap. The hinge penalty stands in for a welfare constraint
    of declared strength, which is recorded in the hyperparameters.
    """
    if tau < 0:
        raise DataError(f"tau must be >= 0, got {tau}")
    if len(pop.group_names) != 2:
        raise DataError("constrained fitting needs exactly two groups")
    if minority is None:
        minority = pop.smallest_group()
    if minority not in pop.group_names:
        raise DataError(f"unknown minority group {minority!r}")

    A = _design_with_intercept(pop)
    w, G, jitter_used = _solve_least_squares(A, pop.y, 0.0)
    hyper: dict = {
        "tau": float(tau),
        "benefit": params.benefit,
        "minority": minority,
        "constraint": "hinge-penalty variant",
    }
    if jitter_used:
        hyper["jitter"] = JITTER
    gap = float(_majority_minus_minority(benefit_value(params.benefit, pop.y, A @ w), pop, minority))
    if tau > 0.0 and gap > 0.0:
        # c is nonzero (the sensitive column separates the groups) and G is
        # positive definite, so c . G^-1 c > 0.
        c = _majority_minus_minority(A, pop, minority)
        direction = np.linalg.solve(G, c)
        w = w - min(tau * pop.size / 2.0, gap / float(c @ direction)) * direction
    return LinearPredictor(
        pop.schema.names, w[:-1], w[-1], kind="constrained", hyperparameters=hyper
    )


class MlpPredictor(Predictor):
    kind = "mlp"

    def __init__(self, feature_names, params, scaler, hyperparameters=None):
        super().__init__(feature_names, hyperparameters)
        self.W1, self.b1, self.W2, self.b2 = params
        self.x_mean, self.x_scale = scaler

    def predict_rows(self, schema: FeatureSchema, X: np.ndarray) -> np.ndarray:
        D = (self._design(schema, X) - self.x_mean) / self.x_scale
        hidden = np.maximum(D @ self.W1 + self.b1, 0.0)
        return hidden @ self.W2 + self.b2

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "features": list(self.feature_names),
            "W1": self.W1.tolist(),
            "b1": self.b1.tolist(),
            "W2": self.W2.tolist(),
            "b2": float(self.b2),
            "x_mean": self.x_mean.tolist(),
            "x_scale": self.x_scale.tolist(),
            "hyperparameters": self.hyperparameters,
        }


def fit_mlp(
    pop: Population,
    hidden: int = 100,
    l2: float = 10.0,
    seed: int = 0,
    epochs: int = 300,
    learning_rate: float = 0.01,
) -> MlpPredictor:
    """Seeded single-hidden-layer ReLU net trained with full-batch Adam.

    Optional model: nothing downstream depends on it; it exists so the
    harness can run a nonlinear smooth model next to the tree.
    """
    rng = np.random.default_rng(seed)
    X = pop.X
    x_mean = X.mean(axis=0)
    x_scale = X.std(axis=0)
    x_scale[x_scale == 0.0] = 1.0
    D = (X - x_mean) / x_scale
    y = pop.y
    n, d = D.shape
    W1 = rng.normal(scale=math.sqrt(2.0 / d), size=(d, hidden))
    b1 = np.zeros(hidden)
    W2 = rng.normal(scale=math.sqrt(1.0 / hidden), size=hidden)
    b2 = float(np.mean(y))
    params = [W1, b1, W2, b2]
    moments = [[np.zeros_like(np.asarray(p)), np.zeros_like(np.asarray(p))] for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for t in range(1, epochs + 1):
        H = D @ W1 + b1
        Hr = np.maximum(H, 0.0)
        pred = Hr @ W2 + b2
        err = pred - y
        g_pred = (2.0 / n) * err
        gW2 = Hr.T @ g_pred + (l2 / n) * W2
        gb2 = float(np.sum(g_pred))
        gH = np.outer(g_pred, W2) * (H > 0)
        gW1 = D.T @ gH + (l2 / n) * W1
        gb1 = gH.sum(axis=0)
        grads = [gW1, gb1, gW2, gb2]
        for i, grad in enumerate(grads):
            g = np.asarray(grad, dtype=np.float64)
            m, v = moments[i]
            m[...] = beta1 * m + (1 - beta1) * g
            v[...] = beta2 * v + (1 - beta2) * g * g
            mh = m / (1 - beta1**t)
            vh = v / (1 - beta2**t)
            update = learning_rate * mh / (np.sqrt(vh) + eps)
            if i == 3:
                b2 -= float(update)
            else:
                params[i] -= update
        W1, b1, W2 = params[0], params[1], params[2]
        params[3] = b2
    return MlpPredictor(
        pop.schema.names,
        (W1, b1, W2, b2),
        (x_mean, x_scale),
        {"hidden": hidden, "l2": l2, "seed": seed, "epochs": epochs},
    )


def evaluate(h: Predictor, pop: Population) -> FitReport:
    """MAE overall and per group on the given population."""
    preds = h.predict(pop)
    err = np.abs(preds - pop.y)
    per_group = {g: float(np.mean(err[pop.group_rows(g)])) for g in pop.group_names}
    return FitReport(
        model_kind=h.kind,
        hyperparameters=dict(h.hyperparameters),
        mae_overall=float(np.mean(err)),
        mae_per_group=per_group,
    )
