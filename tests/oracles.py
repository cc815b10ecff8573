"""Independent reference implementations used as test oracles.

These are deliberately written without reusing the library's code paths:
plain-python loops and brute-force scans that the fast implementations
are checked against.
"""

import dataclasses
import math

import numpy as np

from isac_ident.mlp import ModelWidths, NormBounds, init_weights, loss_and_grad_arrays
from isac_ident.radar_detect import cfar_threshold_factor
from isac_ident.radar_frontend import synthesize_frame
from isac_ident.seeding import child_rng


def reference_dbscan(points, eps, min_pts):
    """Brute-force density clustering: explicit O(n^2) neighborhoods,
    index-order seeding, first-touch labels."""
    pts = [tuple(map(float, p)) for p in points]
    n = len(pts)

    def neighbors(i):
        out = []
        for j in range(n):
            d2 = sum((a - b) ** 2 for a, b in zip(pts[i], pts[j]))
            if d2 <= eps * eps:
                out.append(j)
        return out

    labels = [-1] * n
    seen = [False] * n
    cid = 0
    for i in range(n):
        if seen[i]:
            continue
        seen[i] = True
        hood = neighbors(i)
        if len(hood) < min_pts:
            continue
        labels[i] = cid
        queue = list(hood)
        k = 0
        while k < len(queue):
            j = queue[k]
            k += 1
            if labels[j] == -1:
                labels[j] = cid
            if not seen[j]:
                seen[j] = True
                hood_j = neighbors(j)
                if len(hood_j) >= min_pts:
                    queue.extend(hood_j)
        cid += 1
    return labels


def canonical_labels(labels):
    """Rename cluster ids by first appearance so partitions compare directly."""
    mapping, out = {}, []
    for lab in labels:
        if lab == -1:
            out.append(-1)
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out


GRAD_CHECK_NORM = NormBounds(range_max=100.0, angle_span=180.0, vel_max=20.0, n_beams=16)
GRAD_CHECK_WIDTHS = ModelWidths(radar=(4, 6, 8), beam=(4, 6, 8), head=(8, 6, 4))


def draw_grad_check_case(seed):
    rng = np.random.default_rng(seed)
    model = init_weights(GRAD_CHECK_WIDTHS, GRAD_CHECK_NORM, seed=seed)
    n = 4
    feats = np.column_stack([rng.uniform(5, 95, n), rng.uniform(-80, 80, n),
                             rng.uniform(-18, 18, n)])
    beams = rng.integers(0, 16, n).astype(float)
    targets = rng.integers(0, 2, n).astype(float)
    return model, feats, beams, targets


def reference_forward(model, feats, beams):
    """Both branches and the head as allocating array expressions:
    a @ W.T + b, then max(z, 0) or 1 / (1 + exp(-clip(z, -500, 500))).
    Returns the scores and, per branch, each layer's (input, z, output)."""
    norm = model.norm
    shift = np.array([0.0, norm.angle_span / 2.0, norm.vel_max])
    scale = np.array([norm.range_max, norm.angle_span, 2.0 * norm.vel_max])
    x_radar = (np.asarray(feats, dtype=float) + shift) / scale
    x_beam = (np.asarray(beams, dtype=float) / max(norm.n_beams - 1, 1))[:, None]

    def run(layers, a):
        caches = []
        for layer in layers:
            z = a @ layer.weights.T + layer.bias
            if layer.activation == "relu":
                out = np.maximum(z, 0.0)
            else:
                out = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
            caches.append((a, z, out))
            a = out
        return caches

    c_radar, c_beam = run(model.radar_branch, x_radar), run(model.beam_branch, x_beam)
    c_head = run(model.head, np.concatenate([c_radar[-1][2], c_beam[-1][2]], axis=1))
    return c_head[-1][2][:, 0], (c_radar, c_beam, c_head)


def reference_loss_and_grad(model, feats, beams, targets):
    """Binary cross-entropy of raw rows on the head's logit zc = clip(z, -500,
    500), np.mean(max(zc, 0) - y zc + log1p(exp(-|zc|))), and its gradient
    laid out like theta, by allocating backprop: (score - y) / n at the logit,
    then the relu mask (z > 0).astype(float)."""
    scores, (c_radar, c_beam, c_head) = reference_forward(model, feats, beams)
    y = np.asarray(targets, dtype=float)
    zc = np.clip(c_head[-1][1][:, 0], -500.0, 500.0)
    loss = float(np.mean(np.maximum(zc, 0.0) - y * zc + np.log1p(np.exp(-np.abs(zc)))))

    def back(layers, caches, d):
        """One branch's gradient laid out like theta, and its input's gradient."""
        parts = []
        for layer, (a_in, z, out) in zip(reversed(layers), reversed(caches)):
            dz = d * (z > 0).astype(float) if layer.activation == "relu" else d
            parts.insert(0, np.concatenate([(dz.T @ a_in).ravel(), dz.sum(axis=0)]))
            d = dz @ layer.weights
        return np.concatenate(parts), d

    g_head, d_h = back(model.head, c_head, ((scores - y) / len(y))[:, None])
    width = len(model.radar_branch[-1].bias)
    g_radar, _ = back(model.radar_branch, c_radar, d_h[:, :width])
    g_beam, _ = back(model.beam_branch, c_beam, d_h[:, width:])
    return loss, np.concatenate([g_radar, g_beam, g_head])


def min_relu_preactivation(model, feats, beams):
    """Smallest |z| over all relu pre-activations; finite differences are
    only trustworthy when no relu sits within the probe step of its kink."""
    _, branches = reference_forward(model, feats, beams)
    caches = [cache for branch in branches for cache in branch]
    return min(float(np.abs(z).min()) for layer, (_, z, _) in zip(model.layers(), caches)
               if layer.activation == "relu")


def finite_difference_grads(model, feats, beams, targets, h=1e-4):
    """Central differences through the full loss, one entry of theta at a time."""
    theta = model.theta
    grads = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + h
        lo_p, _ = loss_and_grad_arrays(model, feats, beams, targets)
        theta[i] = orig - h
        lo_m, _ = loss_and_grad_arrays(model, feats, beams, targets)
        theta[i] = orig
        grads[i] = (lo_p - lo_m) / (2 * h)
    return grads


def reference_dnn_fit(train, pointing_angles, hyper, widths):
    """`DnnSolver.fit` as a plain loop: `reference_loss_and_grad` on each
    batch of raw rows, gathered by index, then Adam written as allocating
    array expressions, at step t with the cosine step size
    lr (1 + cos(pi (t - 1) / T)) / 2 over the run's T steps.
    Returns the final theta and the mean loss of every epoch."""
    feats, beams, targets = reference_expand_to_rows(train)
    norm = NormBounds(range_max=max(float(feats[:, 0].max()), 1.0),
                      angle_span=max(2.0 * float(np.abs(feats[:, 1]).max()), 10.0),
                      vel_max=max(float(np.abs(feats[:, 2]).max()), 1.0),
                      n_beams=len(pointing_angles))
    model = init_weights(widths, norm, seed=hyper.seed)
    rng = child_rng(hyper.seed, "shuffle")
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = v = 0.0
    step = 0
    total_steps = hyper.epochs * math.ceil(len(feats) / hyper.batch)
    epoch_losses = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(feats))
        total = 0.0
        for start in range(0, len(feats), hyper.batch):
            idx = order[start:start + hyper.batch]
            loss, grad = reference_loss_and_grad(model, feats[idx], beams[idx], targets[idx])
            lr = hyper.lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))
            step += 1
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * (grad * grad)
            m_hat = m / (1.0 - b1 ** step)
            v_hat = v / (1.0 - b2 ** step)
            model.theta[:] = model.theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            total += loss * len(idx)
        epoch_losses.append(total / len(feats))
    return model.theta, epoch_losses


def reference_power(data, angle_fft_size, clutter_clean=True):
    """Whole-cube FFT chain: range, clutter removal, Doppler (bin 0 zeroed
    after clutter removal), zero-padded angle FFT, each shifted, then the
    squared magnitude of the full result."""
    x = np.fft.fft(data, axis=2)
    if clutter_clean:
        x = x - x.mean(axis=1, keepdims=True)
    x = np.fft.fft(x, axis=1)
    if clutter_clean:
        x[:, 0] = 0.0
    x = np.fft.fftshift(x, axes=1)
    x = np.fft.fftshift(np.fft.fft(x, n=angle_fft_size, axis=0), axes=0)
    return np.abs(x) ** 2


def reference_cfar_threshold(power, cfg, n_looks=1):
    """Whole-cube CA-CFAR threshold as allocating array expressions: cumulative
    sums gathered at clipped window edges, alpha * max(window mean, floor)."""
    n = power.shape[-1]
    train, guard = cfg.cfar_train, cfg.cfar_guard
    cs = np.concatenate([np.zeros(power.shape[:-1] + (1,)), np.cumsum(power, axis=-1)],
                        axis=-1)
    idx = np.arange(n)
    lo_a = np.clip(idx - guard - train, 0, n)
    lo_b = np.clip(idx - guard, 0, n)
    hi_a = np.clip(idx + guard + 1, 0, n)
    hi_b = np.clip(idx + guard + train + 1, 0, n)
    sums = (cs[..., lo_b] - cs[..., lo_a]) + (cs[..., hi_b] - cs[..., hi_a])
    noise = sums / ((lo_b - lo_a) + (hi_b - hi_a))
    alpha = cfar_threshold_factor(2 * train, cfg.cfar_pfa, n_looks)
    floor = cfg.cfar_floor_frac * power.max()
    return alpha * np.maximum(noise, floor)


def reference_cfar(power, cfg, n_looks=1):
    """Whole-cube CA-CFAR: the cells above `reference_cfar_threshold`."""
    return np.argwhere(power > reference_cfar_threshold(power, cfg, n_looks))


def reference_spectra(scene, cfg, seed):
    """Dense per-antenna range-Doppler spectra of a noisy frame, shape
    (n_rx, n_chirps, n_samples), Doppler in FFT order: the noise-free cube's
    range FFT, clutter removal and Doppler FFT, plus white circular Gaussian
    noise of power noise_floor * n_chirps * n_samples drawn into every cell
    (real parts, then imaginary parts, from `np.random.default_rng(seed)`),
    then Doppler bin 0 set to 0."""
    data = synthesize_frame(scene, dataclasses.replace(cfg, noise_floor=0.0)).data
    x = np.fft.fft(data, axis=2)
    x = x - x.mean(axis=1, keepdims=True)
    x = np.fft.fft(x, axis=1)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(cfg.noise_floor * cfg.n_chirps * cfg.n_samples / 2.0)
    x = x + scale * rng.standard_normal(x.shape) + 1j * scale * rng.standard_normal(x.shape)
    x[:, 0] = 0.0
    return x


def reference_n_look_pfa(alpha, n_train, n_looks):
    """CA-CFAR false-alarm rate for cells that sum n_looks exponentials.

    With X the cell (Gamma(n)) and S its N training cells (Gamma(N n)), the
    ratio X / (X + S) is Beta(n, N n), and X > (alpha / N) S exactly when
    that ratio exceeds x = alpha / (N + alpha). For integer shapes the Beta
    tail is a binomial sum: P(Binomial(N n + n - 1, x) < n).
    """
    x = alpha / (n_train + alpha)
    trials = n_train * n_looks + n_looks - 1
    return sum(math.comb(trials, j) * x**j * (1.0 - x) ** (trials - j) for j in range(n_looks))


def reference_expand_to_rows(samples):
    """Per-candidate rows built by appending one candidate at a time."""
    feats, beams, targets = [], [], []
    for s in samples:
        for k, c in enumerate(s.candidates):
            feats.append((c.range_m, c.angle_deg, c.vel_mps))
            beams.append(s.b_star)
            targets.append(1.0 if k == s.label else 0.0)
    return np.array(feats).reshape(-1, 3), np.array(beams, dtype=int), np.array(targets)
