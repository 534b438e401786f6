import math
import random

import numpy as np
import pytest

from bcontactlab.expressions import (
    MAX_POWER, Binary, Const, DomainError, EvalError, ParseError, Power,
    Unary, Var, compile, differentiate, evaluate, free_vars, gradient,
    hessian, parse, substitute, to_string,
)
from tests_fd import central_gradient, central_hessian, eval_value


def test_parse_basic_shapes():
    assert parse("cos(y)", ["x", "y", "z"]) == Unary("cos", Var("y"))
    assert parse("sin(theta)^2", ["theta", "phi", "z"]) == Power(
        Unary("sin", Var("theta")), 2)
    assert parse("x + y*z") == Binary(
        "+", Var("x"), Binary("*", Var("y"), Var("z")))


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse("cos(", ["x", "y", "z"])
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("1 + * 2")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse("x ^ y")  # exponent must be an integer literal
    with pytest.raises(ParseError):
        parse("x ^ 2.5")


def test_a_literal_that_overflows_is_a_parse_error():
    # float("1e999") is inf, which to_string cannot print back
    with pytest.raises(ParseError, match="overflows") as err:
        parse("2 + 1e999*u", ("u",))
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("u - " + "9" * 400)
    assert err.value.offset == 4


def test_an_exponent_too_long_for_int_is_a_parse_error():
    # int() refuses a literal of more than 4,300 digits with a ValueError
    with pytest.raises(ParseError, match="exponent literal too long") as err:
        parse("x^" + "0" * 5000 + "2", ("x",))
    assert err.value.offset == 2


def test_unknown_identifier_rejected_against_chart():
    with pytest.raises(ParseError) as err:
        parse("cos(teta)", ["theta", "phi", "z"])
    assert "teta" in str(err.value)
    # unknown function names are rejected even without a chart
    with pytest.raises(ParseError) as err:
        parse("tan(x)")
    assert "tan" in str(err.value)


def test_eval_unknown_variable_at_runtime():
    e = parse("a + b")
    with pytest.raises(EvalError) as err:
        eval_value(e, ("a",), (1.0,))
    assert "b" in str(err.value)


def _partials_at(e, names, point):
    """Value, gradient and Hessian of ``e`` at ``point`` from derived trees."""
    grad = [eval_value(d, names, point) for d in gradient(e, names)]
    hess = [[eval_value(d, names, point) for d in row]
            for row in hessian(e, names)]
    return eval_value(e, names, point), grad, hess


def test_partial_examples():
    names = ("x", "y", "z")
    value, grad, hess = _partials_at(parse("cos(y)"), names, (0.0, 0.0, 0.0))
    assert value == 1.0 and grad[1] == 0.0 and hess[1][1] == -1.0

    value, grad, hess = _partials_at(parse("x*z"), names, (2.0, 0.0, 3.0))
    assert value == 6.0
    assert grad == [3.0, 0.0, 2.0]
    assert hess[0][2] == 1.0 and hess[2][0] == 1.0


def test_power_tower_folds_right_associatively():
    e = parse("2^3^2")
    assert e == Power(Const(2.0), 9)
    assert eval_value(e, (), ()) == 512.0


def test_numbers_with_exponent_suffix():
    assert parse("1e-3") == Const(0.001)
    assert parse("2.5E+2") == Const(250.0)


# ---------------------------------------------------------------------------
# printer round trip

def _random_tree(rng, names, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            c = round(rng.uniform(-4, 4), 2)
            return Const(float(c))
        return Var(rng.choice(names))
    if roll < 0.45:
        return Unary(rng.choice(("sin", "cos", "exp", "sqrt", "abs")),
                     _random_tree(rng, names, depth - 1))
    if roll < 0.6:
        return Power(_random_tree(rng, names, depth - 1), rng.choice((-3, -2, -1, 2, 3, 4)))
    op = rng.choice("+-*/")
    return Binary(op, _random_tree(rng, names, depth - 1),
                  _random_tree(rng, names, depth - 1))


def test_print_parse_round_trip_on_random_trees():
    rng = random.Random(991)
    names = ("u", "v", "z")
    for _ in range(400):
        t = _random_tree(rng, names, 4)
        s = to_string(t)
        t2 = parse(s, names)
        # parse . print is idempotent, and in fact the identity on parsed trees
        assert parse(to_string(t2), names) == t2
        # hand-built trees may normalize once (unary-minus encoding), never twice
        assert to_string(t2) == to_string(parse(to_string(t2), names))


def test_compiled_trees_match_the_walker_bit_for_bit():
    """The compiled function returns the walker's values, types and domain
    errors, at float points and on arrays, with subtrees shared between the
    trees both by identity and by structure."""
    rng = random.Random(4242)
    lanes = np.random.default_rng(4242)
    names = ("u", "v", "z")
    outcomes = {"float": 0, "array": 0, "raised": 0}
    for _ in range(300):
        a, b = _random_tree(rng, names, 3), _random_tree(rng, names, 3)
        op = rng.choice("+-*/")
        trees = (a, b, Binary(op, a, b), Binary(op, parse(to_string(a)), b))
        fn = compile(trees, names)
        points = [tuple(rng.uniform(-3, 3) for _ in names) for _ in range(3)]
        points.append(tuple(lanes.uniform(-3, 3, 5) for _ in names))
        for point in points:
            env = dict(zip(names, point))
            try:
                want = tuple(evaluate(t, env) for t in trees)
            except DomainError:
                with pytest.raises(DomainError):
                    fn(*point)
                outcomes["raised"] += 1
                continue
            got = fn(*point)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert type(g) is type(w)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
            outcomes["array" if isinstance(point[0], np.ndarray)
                     else "float"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def _same_outcome(trees, names, point):
    """The walker and the compiled function agree on ``point``: both raise
    :class:`DomainError`, or both return the same values bit for bit.
    Returns whether they raised."""
    env = dict(zip(names, point))
    fn = compile(trees, names)
    with np.errstate(over="ignore"):  # an overflow is reported as DomainError
        try:
            want = tuple(evaluate(t, env) for t in trees)
        except DomainError:
            with pytest.raises(DomainError):
                fn(*point)
            return True
        got = fn(*point)
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w)
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    return False


@pytest.mark.parametrize("divisor", [0.0, 0.5, -0.5, 1.0, 3.0, 1e300])
def test_division_by_a_literal_has_one_policy(divisor):
    """A literal divisor with |c| >= 1 divides unchecked, any other stays
    checked; walker and compiled function raise and round alike."""
    trees = (Binary("/", Var("u"), Const(divisor)),
             Binary("/", Binary("*", Var("u"), Var("u")), Const(divisor)))
    numerators = [1.5, -2.25, 0.0, 1e300, 1e-300, math.inf]
    points = [(x,) for x in numerators] + [(np.array(numerators[:4]),),
                                           (np.array(numerators),)]
    raised = [_same_outcome(trees, ("u",), point) for point in points]
    if divisor == 0.0:
        assert all(raised)
    elif abs(divisor) < 1.0:
        assert raised == [False, False, False, True, False, True, True, True]
    else:
        # unchecked: an infinite numerator passes through as it is
        assert not any(raised)
        assert evaluate(trees[0], {"u": math.inf}) == math.inf / divisor


@pytest.mark.parametrize("src", ["u^2", "u^7"])
def test_power_overflow_raises_on_both_paths(src):
    """A positive power is a multiplication chain checked once: it raises
    where it overflows, at a float point and in any lane of an array."""
    trees = (parse(src, ("u",)),)
    for point in [(1e200,), (-1e200,), (np.array([1.0, 1e200, 2.0]),)]:
        assert _same_outcome(trees, ("u",), point)
    for point in [(1.5,), (-1e-200,), (np.array([1.0, -3.0, 2.0]),)]:
        assert not _same_outcome(trees, ("u",), point)


def test_a_positive_exponent_above_max_power_is_a_parse_error():
    """x^m is m - 1 multiplications, so the parser bounds a positive m: no
    scenario string makes an evaluation or a compiled function that long.
    A tower is bounded as it folds, before it grows."""
    assert parse(f"u^{MAX_POWER}", ("u",)) == Power(Var("u"), MAX_POWER)
    assert _value("u^-100", (2.0,)) == 2.0 ** -100
    for src in (f"u^{MAX_POWER + 1}", "u^1000000", "u^2^30", "u^9^9^9"):
        with pytest.raises(ParseError) as err:
            parse(src, ("u",))
        assert "exponent above 64" in str(err.value)


def test_positive_powers_are_one_left_to_right_chain():
    """x^m is ((x*x)*x)..., so a float point and an array lane round alike
    (libm pow and numpy power differ in the last bit)."""
    rng = np.random.default_rng(17)
    x = rng.uniform(-3.0, 3.0, 200)
    for m in (2, 3, 5, 8):
        chain = x.copy()
        for _ in range(m - 1):
            chain = chain * x
        tree = Power(Var("u"), m)
        lanes = evaluate(tree, {"u": x})
        assert lanes.tobytes() == chain.tobytes()
        assert compile((tree,), ("u",))(x)[0].tobytes() == chain.tobytes()
        assert [evaluate(tree, {"u": float(a)}) for a in x] == chain.tolist()


def test_compile_rejects_an_unknown_variable_up_front():
    with pytest.raises(EvalError) as err:
        compile((parse("u + 1"), parse("u * w")), ("u", "v"))
    assert "'w'" in str(err.value)


def test_compiled_source_carries_no_scenario_names():
    """Variables are positional: a name that is not even an identifier, and
    would run code if pasted into source, is only a key."""
    name = "__import__('os').getpid()"
    fn = compile((Binary("*", Var(name), Const(-2.0)), Const(3.0)), (name,))
    assert fn(1.5) == (-3.0, 3.0)


def test_round_trip_preserves_grouping():
    for s in ["u + (v - z)", "u - (v - z)", "u / (v / z)", "(u + v) * z",
              "-u^2", "(-2)^2", "u^-2", "abs(u - 3)", "-(u + v)"]:
        e = parse(s, ("u", "v", "z"))
        assert parse(to_string(e), ("u", "v", "z")) == e


def test_negative_base_power_prints_with_parens():
    e = Power(Const(-2.0), 2)
    s = to_string(e)
    assert eval_value(parse(s), (), ()) == 4.0


# ---------------------------------------------------------------------------
# symbolic differentiation / substitution

def test_differentiate_matches_autodiff():
    """First and second partials against sympy's, evaluated to 30 digits."""
    import sympy

    rng = random.Random(5150)
    names = ("u", "v")
    symbols = sympy.symbols(names, real=True)
    corpus = [
        "sin(u)*cos(v) + u^3/(v + 3)",
        "exp(0.2*u - v) + sqrt(u^2 + v^2 + 1)",
        "cos(u + 2*v)^2 - u*v",
        "abs(v + 5)*sin(u)",
    ]
    for src in corpus:
        e = parse(src, names)
        ref = sympy.sympify(src.replace("^", "**"),
                            locals=dict(zip(names, symbols)))
        trees = list(gradient(e, names))
        refs = [sympy.diff(ref, s) for s in symbols]
        trees += [differentiate(d, n) for d in trees for n in names]
        refs += [sympy.diff(r, s) for r in refs for s in symbols]
        for _ in range(25):
            p = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            at = dict(zip(symbols, p))
            for tree, r in zip(trees, refs):
                assert math.isclose(eval_value(tree, names, p),
                                    float(r.evalf(30, subs=at)),
                                    rel_tol=1e-12, abs_tol=1e-12)


def test_substitute_composes():
    e = parse("cos(theta) + sin(theta)*phi")
    s = substitute(e, {"theta": parse("3.141592653589793 - tp"),
                       "phi": parse("-pp")})
    assert free_vars(s) == {"tp", "pp"}
    val = eval_value(s, ("tp", "pp"), (0.4, 0.9))
    ref = math.cos(math.pi - 0.4) + math.sin(math.pi - 0.4) * (-0.9)
    assert math.isclose(val, ref, rel_tol=1e-15)


def test_division_by_zero_in_tree():
    e = parse("1/(u - 1)")
    with pytest.raises(DomainError):
        eval_value(e, ("u",), (1.0,))


# ---------------------------------------------------------------------------
# the finite-difference corpus (autodiff vs. central differences)

FD_CORPUS = [
    "sin(x)*cos(y)",
    "cos(y) + 0.3*cos(x)*sin(y)",
    "exp(0.3*x - 0.2*y + 0.1*z)",
    "sqrt(x^2 + y^2 + 2)/(z + 3)",
    "sin(x*y) + cos(y*z)^2",
    "(x + 2)*(y - 3)*(z + 4)",
    "1/(2 + sin(x) + cos(y))",
    "abs(x + 4)*sin(y) - z^3",
    "x^4 - 2*x^2*y + y^2 + exp(z)^2",
    "sin(cos(x) + y)/(2 + z^2)",
]


def test_fd_corpus_100_points_each():
    rng = random.Random(31415)
    names = ("x", "y", "z")
    for src in FD_CORPUS:
        e = parse(src, names)
        done = 0
        while done < 100:
            p = tuple(rng.uniform(-1.3, 1.3) for _ in range(3))
            try:
                _, grad, hess = _partials_at(e, names, p)
                g = central_gradient(lambda q: eval_value(e, names, q), p)
                H = central_hessian(lambda q: eval_value(e, names, q), p)
            except DomainError:
                continue  # stencil touched a kink or pole, resample
            for i in range(3):
                assert abs(grad[i] - g[i]) / (1 + abs(grad[i])) < 1e-6
                for k in range(3):
                    assert abs(hess[i][k] - H[i][k]) / (1 + abs(hess[i][k])) < 1e-4
            done += 1


# a small zoo of C^2 functions exercising every primitive
ZOO = [
    "sin(u*v) + cos(z*z - u)*v",
    "sqrt(u^2 + v^2 + 1)/(z + 2)",
    "exp(0.3*u - v) + z^3",
    "abs(u + 2)*v - 1/(v - 4)",
    "(sin(u)*cos(v) + 2.5)^-2 + (exp(z) + u)^3",
]


def test_zoo_partials_match_finite_differences():
    rng = random.Random(20240915)
    names = ("u", "v", "z")
    for src in ZOO:
        e = parse(src, names)
        for _ in range(40):
            x = tuple(rng.uniform(-1.2, 1.2) for _ in range(3))
            _, grad, hess = _partials_at(e, names, x)
            g = central_gradient(lambda q: eval_value(e, names, q), x)
            H = central_hessian(lambda q: eval_value(e, names, q), x)
            for i in range(3):
                assert abs(grad[i] - g[i]) / (1 + abs(grad[i])) < 1e-6
                for j in range(3):
                    assert abs(hess[i][j] - H[i][j]) / (1 + abs(hess[i][j])) < 1e-4


def test_array_payload_matches_scalar_loop():
    names = ("u", "v")
    e = parse("sin(u*v) + sqrt(v^2 + 1)", names)
    trees = [e, differentiate(e, "v"), hessian(e, names)[0][1]]
    pts = np.linspace(-1.0, 1.0, 17)
    batch = [eval_value(t, names, (np.full_like(pts, 0.3), pts)) for t in trees]
    for k, p in enumerate(pts):
        for t, out in zip(trees, batch):
            assert math.isclose(out[k], eval_value(t, names, (0.3, float(p))),
                                rel_tol=1e-15)


# ---------------------------------------------------------------------------
# domain policy: every violation is a DomainError, never a bare arithmetic
# exception or a silent inf

def _value(src, point):
    names = ("u", "v")[:len(point)]
    return eval_value(parse(src, names), names, point)


def test_division_by_zero_raises():
    for src, point in (("1/u", (0.0,)), ("(u + 1)/u", (0.0,)),
                       ("u^-1", (0.0,)), ("1/u", (1e-320,))):
        with pytest.raises(DomainError):
            _value(src, point)
    with pytest.raises(DomainError):
        _value("1/u", (np.array([1.0, 0.0, 2.0]),))


def test_sqrt_domain():
    with pytest.raises(DomainError):
        _value("sqrt(u)", (-0.5,))
    with pytest.raises(DomainError):
        _value("sqrt(u)", (0.0,))  # derivative blows up at 0, refuse rather than inf


def test_abs_kink():
    with pytest.raises(DomainError):
        _value("abs(u)", (1e-13,))
    e = parse("abs(u)", ("u",))
    assert eval_value(e, ("u",), (-0.3,)) == 0.3
    assert eval_value(differentiate(e, "u"), ("u",), (-0.3,)) == -1.0
    with pytest.raises(DomainError):
        eval_value(differentiate(e, "u"), ("u",), (1e-13,))


def test_exp_overflow():
    with pytest.raises(DomainError):
        _value("exp(u)", (1000.0,))
    with pytest.raises(DomainError):
        _value("exp(u)", (np.array([0.0, 1000.0]),))


def test_integer_powers_only():
    with pytest.raises(ParseError):
        parse("u^0.5", ("u",))
    with pytest.raises(DomainError):
        _value("u^-1", (0.0,))
    with pytest.raises(DomainError):
        _value("u^2", (1e200,))
    assert _value("u^0", (2.0,)) == 1.0
    assert _value("u^-2", (2.0,)) == 0.25
    e = parse("u^-2", ("u",))
    assert eval_value(differentiate(e, "u"), ("u",), (2.0,)) == pytest.approx(
        -2 * 2.0 ** -3)


def test_array_payload_domain_check_is_any():
    # one bad lane poisons the whole batch, by design
    with pytest.raises(DomainError):
        _value("sqrt(u)", (np.array([1.0, 0.0, 4.0]),))
