import json
from fractions import Fraction

from pt_horizon import identities, model


class TestIndividualChecks:
    def test_w_forms_proved(self):
        r = identities.verify_w_forms()
        assert r.status == "Proved"
        assert r.witness is None

    def test_wpq_relation_proved(self):
        r = identities.verify_wpq_relation()
        assert r.status == "Proved"
        assert "derived" in r.detail

    def test_factor_b1_proved(self):
        r = identities.verify_factor_b1()
        assert r.status == "Proved"

    def test_factor_b1_values(self):
        # frozen spot values of the two printed forms
        assert model.eval_w(2, 1, 1) == -3
        assert model.w_b1_factored(2, 1) == -3
        assert model.eval_w(1, 1, -1) == 0
        assert model.w_b1_factored(1, -1) == 0
        assert model.w_b1_factored(0, 0) == 0

    def test_b0_square_proved(self):
        r = identities.verify_b0_square()
        assert r.status == "Proved"

    def test_b0_square_values(self):
        assert model.eval_w(3, 0, 1) == 0
        assert model.eval_w(1, 0, 0) == 49
        assert model.eval_w(0, 0, 2) == 144

    def test_c0_forms_flags_printed_prefactor(self):
        r = identities.verify_c0_forms()
        assert r.status == "Holds"
        assert "printed-form mismatch" in r.detail
        assert "1/2" in r.detail

    def test_secular_vs_charpoly(self):
        r = identities.verify_secular_vs_charpoly()
        assert r.status == "Holds"

    def test_pseudo_hermiticity(self):
        r = identities.verify_pseudo_hermiticity()
        assert r.status == "Holds"

    def test_strip_equivalence(self):
        r = identities.verify_strip_equivalence()
        assert r.status == "Holds"


class TestSuite:
    def test_eight_checks_sorted_by_name(self):
        results = identities.run_all()
        assert len(results) == 8
        names = [r.name for r in results]
        assert names == sorted(names)

    def test_no_failures_and_one_flag(self):
        results = identities.run_all()
        assert not identities.has_failures(results)
        flagged = [r for r in results if "printed-form mismatch" in r.detail]
        assert len(flagged) == 1

    def test_proved_set(self):
        results = {r.name: r.status for r in identities.run_all()}
        for name in ("w_forms", "wpq_relation", "b1_factorization", "b0_square"):
            assert results[name] == "Proved"

    def test_json_schema(self):
        results = identities.run_all()
        payload = json.loads(identities.report_json(results))
        assert isinstance(payload, list) and len(payload) == 8
        for entry in payload:
            assert set(entry) == {"name", "status", "witness", "detail", "paper_ref"}

    def test_seed_recorded(self):
        results = identities.run_all(seed=999)
        seeded = [r for r in results if "seed=999" in r.detail]
        assert len(seeded) == 2  # the two randomized checks

    def test_deterministic(self):
        a = identities.report_json(identities.run_all())
        b = identities.report_json(identities.run_all())
        assert a == b


class TestTampering:
    def test_broken_form_yields_failure_with_witness(self, monkeypatch):
        # negative control: corrupt one expanded coefficient and expect Fails
        def broken(a, b, c):
            return model.eval_w(a, b, c) + a * a
        monkeypatch.setattr(model, "eval_w_expanded", broken)
        r = identities.verify_w_forms()
        assert r.status == "Fails"
        assert r.witness is not None
        assert identities.has_failures([r])


class TestSignClassInvariant:
    """s = 8 + c^2 - a^2 never vanishes where W > 0 and P > 0.

    On s = 0 put p = a + c; then a - c = 8/p, so a = (p + 8/p)/2 and
    c = (p - 8/p)/2.  P is of degree 2 in (a, c) and W of degree 4, so
    p^2 P and p^4 W are polynomials of degree <= 4 and <= 8 in p, and both
    are of degree 2 in b: agreement on 10 values of p times 4 values of b
    proves each identity.  `topology` builds its sign classes on them.
    """

    PS = [Fraction(k, 3) for k in range(-5, 6) if k]   # 10 nonzero values
    BS = [Fraction(k, 2) for k in range(4)]

    def points(self):
        for p in self.PS:
            a, c = (p + 8 / p) / 2, (p - 8 / p) / 2
            assert a + c == p and model.w_b0_square_root_term(a, c) == 0
            for b in self.BS:
                yield p, a, b, c

    def test_p_on_s_zero(self):
        for p, a, b, c in self.points():
            assert 2 * p * p * model.eval_p(a, b, c) == (
                -(p * p - 4) * (p * p - 16) - 4 * p * p * b * b)

    def test_w_on_s_zero(self):
        for p, a, b, c in self.points():
            assert model.eval_w(a, b, c) == -4 * (16 - p * p) * b * b
