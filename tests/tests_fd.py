"""Central finite differences, the reference the autodiff machinery is held
to, and point evaluation of a tree by its variable names."""
from bcontactlab.expressions import evaluate

GRAD_STEP = 1e-5
HESS_STEP = 1e-4


def central_gradient(fn, x, h=GRAD_STEP):
    n = len(x)
    g = []
    for i in range(n):
        xp = list(x); xp[i] += h
        xm = list(x); xm[i] -= h
        g.append((fn(tuple(xp)) - fn(tuple(xm))) / (2 * h))
    return g


def central_hessian(fn, x, h=HESS_STEP):
    n = len(x)
    H = [[0.0] * n for _ in range(n)]
    f0 = fn(tuple(x))
    for i in range(n):
        xp = list(x); xp[i] += h
        xm = list(x); xm[i] -= h
        H[i][i] = (fn(tuple(xp)) - 2 * f0 + fn(tuple(xm))) / (h * h)
        for j in range(i + 1, n):
            xpp = list(x); xpp[i] += h; xpp[j] += h
            xpm = list(x); xpm[i] += h; xpm[j] -= h
            xmp = list(x); xmp[i] -= h; xmp[j] += h
            xmm = list(x); xmm[i] -= h; xmm[j] -= h
            H[i][j] = H[j][i] = (
                fn(tuple(xpp)) - fn(tuple(xpm)) - fn(tuple(xmp)) + fn(tuple(xmm))
            ) / (4 * h * h)
    return H


def eval_value(e, variables, point):
    """Value of ``e`` at ``point`` (floats or arrays), one value per name."""
    return evaluate(e, dict(zip(variables, point)))
