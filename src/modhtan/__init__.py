"""Normalized hyperbolic tangent activation (modhtan) and its benchmark kit.

The activation normalizes its input by x / (x + offset_1) with a batch-adaptive
offset, squashes it as 2 / (1 + E**(-2x)) - 1, a tanh of slope ln E for a
rational-power approximation E of e, and stays strictly inside (-1, 1) even
for inputs in the thousands -- which is the point: saturating instead of
overflowing keeps training from stalling on non-finite values.

Submodules: rnf (exp approximation), activations, network (one-hidden-layer
MLP), training (gradient descent with momentum + Levenberg-Marquardt),
datasets (synthetic parabola + Statlog-format heart data), bench, cli.  The
package root re-exports nothing: import from the submodules, e.g.
`from modhtan.activations import activate`.
"""

__version__ = "0.1.0"
