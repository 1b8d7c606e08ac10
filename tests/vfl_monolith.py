"""Message-free straight-line recomputation of VFLGAN training.

Re-derives the same child streams as the protocol engine and performs the
whole computation inline with nn primitives only: no Party/Server objects,
no protocol messages. Used as the independent oracle for the
protocol-vs-monolith equivalence tests. Gradient accumulation order mirrors
the engine exactly so agreement is bitwise: D_i^1 runs once per row set, and
the D_i^2 and lambda-scaled server cotangents are summed on the features
before the single backward pass through D_i^1. Gradients are parameter
vectors, summed with ``+``.
"""

import numpy as np

from vfsynth import nn
from vfsynth.fedgan import OutputHead, PartitionedData


class MonolithVflgan:
    def __init__(self, parts: PartitionedData, cfg, rng):
        self.cfg = cfg
        self.views = list(parts.views)
        self.m = len(self.views)
        self.heads = [
            OutputHead(b, cfg.gumbel_temperature, cfg.numeric_activation)
            for b in parts.blocks
        ]
        self.g, self.d1, self.d2 = [], [], []
        self.adam_g, self.adam_d1, self.adam_d2 = [], [], []
        for i in range(self.m):
            width = self.views[i].shape[1]
            g = nn.init_mlp(
                [cfg.latent_dim, *cfg.gen_hidden, width], rng.child("init", "g", i)
            )
            d1 = nn.init_mlp(
                [width, *cfg.disc_part1_hidden, cfg.feature_dim],
                rng.child("init", "d1", i),
                out_activation="leaky_relu",
            )
            d2 = nn.init_mlp(
                [cfg.feature_dim, *cfg.disc_part2_hidden, 1],
                rng.child("init", "d2", i),
            )
            self.g.append(g)
            self.d1.append(d1)
            self.d2.append(d2)
            self.adam_g.append(nn.AdamState.for_mlp(g))
            self.adam_d1.append(nn.AdamState.for_mlp(d1))
            self.adam_d2.append(nn.AdamState.for_mlp(d2))
        self.ds = nn.init_mlp(
            [cfg.feature_dim * self.m, *cfg.server_hidden, 1], rng.child("init", "ds")
        )
        self.adam_ds = nn.AdamState.for_mlp(self.ds)
        self.gumbel = [rng.child("gumbel", i) for i in range(self.m)]
        self.beta = [rng.child("beta", i) for i in range(self.m)]
        self.beta_server = rng.child("beta_server")
        self.batch = rng.child("batch")
        self.z = rng.child("z")
        self.n = self.views[0].shape[0]

    def _feature_slices(self):
        w = self.cfg.feature_dim
        return [slice(i * w, (i + 1) * w) for i in range(self.m)]

    def run_epoch(self):
        cfg = self.cfg
        b = cfg.batch_size
        lam = cfg.lambda_server
        for _ in range(cfg.disc_steps):
            idx = self.batch.subsample(self.n, b)
            z = self.z.normal(b, cfg.latent_dim)
            xs, xts, tapes_fr, tapes_fs = [], [], [], []
            for i in range(self.m):
                logits, _ = nn.forward(self.g[i], z)
                xt = self.heads[i].forward(logits, self.gumbel[i])
                x = self.views[i][idx]
                xs.append(x)
                xts.append(xt)
                tapes_fr.append(nn.forward(self.d1[i], x)[1])
                tapes_fs.append(nn.forward(self.d1[i], xt)[1])
            f = np.hstack([t.output for t in tapes_fr])
            ft = np.hstack([t.output for t in tapes_fs])
            out_r, tape_r = nn.forward(self.ds, f)
            out_s, tape_s = nn.forward(self.ds, ft)
            grads_r, d_f = nn.backward(self.ds, tape_r, np.full_like(out_r, -1.0 / b))
            grads_s, d_ft = nn.backward(self.ds, tape_s, np.full_like(out_s, 1.0 / b))
            f_hat = nn.interpolate(f, ft, self.beta_server)
            _, (grads_p,) = nn.gradient_penalty((self.ds,), f_hat, cfg.lambda_gp)
            ds_grads = grads_r + grads_s + grads_p
            self.ds, self.adam_ds = nn.adam_step(
                self.ds, ds_grads, self.adam_ds, cfg.eta_server
            )
            for i, sl in enumerate(self._feature_slices()):
                # D_i^2 on the features, then the summed cotangents through D_i^1
                out_r, tape_r = nn.forward(self.d2[i], tapes_fr[i].output)
                out_s, tape_s = nn.forward(self.d2[i], tapes_fs[i].output)
                d2_r, cot_r = nn.backward(self.d2[i], tape_r, np.full_like(out_r, -1.0 / b))
                d2_s, cot_s = nn.backward(self.d2[i], tape_s, np.full_like(out_s, 1.0 / b))
                x_hat = nn.interpolate(xs[i], xts[i], self.beta[i])
                _, (p1, p2) = nn.gradient_penalty(
                    (self.d1[i], self.d2[i]), x_hat, cfg.lambda_gp
                )
                cot_r = cot_r + lam * d_f[:, sl]
                cot_s = cot_s + lam * d_ft[:, sl]
                d1_total = (nn.backward(self.d1[i], tapes_fr[i], cot_r)[0]
                            + nn.backward(self.d1[i], tapes_fs[i], cot_s)[0] + p1)
                self.d1[i], self.adam_d1[i] = nn.adam_step(
                    self.d1[i], d1_total, self.adam_d1[i], cfg.eta_d
                )
                self.d2[i], self.adam_d2[i] = nn.adam_step(
                    self.d2[i], d2_r + d2_s + p2, self.adam_d2[i], cfg.eta_d
                )
        # generator iteration
        z = self.z.normal(b, cfg.latent_dim)
        xts, tapes_g, tapes_f = [], [], []
        for i in range(self.m):
            logits, tape_g = nn.forward(self.g[i], z)
            xt = self.heads[i].forward(logits, self.gumbel[i])
            xts.append(xt)
            tapes_g.append(tape_g)
            tapes_f.append(nn.forward(self.d1[i], xt)[1])
        ft = np.hstack([t.output for t in tapes_f])
        out, tape = nn.forward(self.ds, ft)
        scale = -cfg.lambda_gen_server / b
        _, d_ft = nn.backward(self.ds, tape, np.full_like(out, scale))
        for i, sl in enumerate(self._feature_slices()):
            out_c, tape_c = nn.forward(self.d2[i], tapes_f[i].output)
            _, d_local = nn.backward(self.d2[i], tape_c, np.full_like(out_c, -1.0 / b))
            _, d_xt = nn.backward(self.d1[i], tapes_f[i], d_ft[:, sl] + d_local)
            d_logits = self.heads[i].backward(xts[i], d_xt)
            g_grads, _ = nn.backward(self.g[i], tapes_g[i], d_logits)
            self.g[i], self.adam_g[i] = nn.adam_step(
                self.g[i], g_grads, self.adam_g[i], cfg.eta_g
            )
