import itertools
import re

import numpy as np
import pytest

from smartlong import (
    DesignKind,
    EmbeddedCai,
    SmartDesign,
    consistency_indicator,
    design_weight,
    enumerate_cais,
)
from smartlong.data import Pathway
from smartlong.design import _pathway_violation
from smartlong.errors import InconsistentCluster

from conftest import make_cluster


def enumerate_pathways(design):
    """Brute-force oracle: every observed pathway a cluster can realize."""
    kind = design.kind
    pathways = []
    for a1 in (1, -1):
        for r in (0, 1):
            if design.rerandomizes(a1, r):
                for a2 in (1, -1):
                    if kind is DesignKind.I and r == 1:
                        pathways.append((a1, r, None, a2))  # (a1, r, a2nr, a2r)
                    else:
                        pathways.append((a1, r, a2, None))
            else:
                pathways.append((a1, r, None, None))
    return pathways


def pathway_cluster(pathway, cid="c0"):
    a1, r, a2nr, a2r = pathway
    return make_cluster(cid, a1, r, a2nr, [(0.0, 0.0)], a2r=a2r)


class TestEnumerate:
    def test_design2_four_cais(self):
        cais = enumerate_cais(SmartDesign.balanced(DesignKind.II))
        assert [(c.a1, c.a2nr) for c in cais] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        assert all(c.a2r is None for c in cais)

    def test_design1_eight_cais(self):
        cais = enumerate_cais(SmartDesign.balanced(DesignKind.I))
        assert len(cais) == 8
        assert len(set(cais)) == 8
        assert {(c.a1, c.a2r, c.a2nr) for c in cais} == {
            (a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)
        }

    def test_design3_three_cais(self):
        # only non-responders to the +1 arm are re-randomized
        cais = enumerate_cais(SmartDesign.balanced(DesignKind.III))
        assert [(c.a1, c.a2nr) for c in cais] == [(1, 1), (1, -1), (-1, None)]

    def test_design4_four_cais(self):
        cais = enumerate_cais(SmartDesign.balanced(DesignKind.IV))
        assert [(c.a1, c.a2nr) for c in cais] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    def test_order_deterministic(self):
        d = SmartDesign.balanced(DesignKind.I)
        assert enumerate_cais(d) == enumerate_cais(d)

    def test_each_call_returns_a_new_list(self):
        d = SmartDesign.balanced(DesignKind.II)
        first = enumerate_cais(d)
        first.reverse()
        first.append(first[0])
        assert enumerate_cais(d) == [EmbeddedCai(1, None, 1), EmbeddedCai(1, None, -1),
                                     EmbeddedCai(-1, None, 1), EmbeddedCai(-1, None, -1)]
        assert enumerate_cais(d) is not enumerate_cais(d)


class TestConsistency:
    def test_design2_responder_consistent_with_two(self):
        design = SmartDesign.balanced(DesignKind.II)
        cl = make_cluster("c", 1, 1, None, [(0, 0)])
        hits = {
            (d.a1, d.a2nr): consistency_indicator(cl, d, design)
            for d in enumerate_cais(design)
        }
        assert hits == {(1, 1): 1, (1, -1): 1, (-1, 1): 0, (-1, -1): 0}

    def test_design2_nonresponder_mismatch(self):
        design = SmartDesign.balanced(DesignKind.II)
        cl = make_cluster("c", 1, 0, -1, [(0, 0)])
        assert consistency_indicator(cl, EmbeddedCai(1, None, 1), design) == 0
        assert consistency_indicator(cl, EmbeddedCai(1, None, -1), design) == 1

    def test_design4_single_match(self):
        # brute force over the four pathways: no embedded tailoring
        design = SmartDesign.balanced(DesignKind.IV)
        cl = make_cluster("c", -1, 0, 1, [(0, 0)])
        hits = [consistency_indicator(cl, d, design) for d in enumerate_cais(design)]
        matched = [d for d, h in zip(enumerate_cais(design), hits) if h]
        assert matched == [EmbeddedCai(-1, None, 1)]

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_every_pathway_consistent_with_some_cai(self, kind):
        design = SmartDesign.balanced(kind)
        cais = enumerate_cais(design)
        for pathway in enumerate_pathways(design):
            cl = pathway_cluster(pathway)
            consistent = [d for d in cais if consistency_indicator(cl, d, design)]
            assert consistent, f"pathway {pathway} matches no embedded regime"

    def test_design2_counts(self):
        design = SmartDesign.balanced(DesignKind.II)
        cais = enumerate_cais(design)
        for pathway in enumerate_pathways(design):
            cl = pathway_cluster(pathway)
            count = sum(consistency_indicator(cl, d, design) for d in cais)
            assert count == (2 if pathway[1] == 1 else 1)


class TestWeights:
    def test_design2_balanced(self):
        design = SmartDesign.balanced(DesignKind.II)
        responder = make_cluster("c", 1, 1, None, [(0, 0)])
        nonresponder = make_cluster("c", -1, 0, 1, [(0, 0)])
        assert design_weight(responder, design) == pytest.approx(2.0)
        assert design_weight(nonresponder, design) == pytest.approx(4.0)

    def test_design2_unbalanced_second_stage(self):
        design = SmartDesign(
            kind=DesignKind.II, p_a1=0.5, p_a2_given={(1, 0): 0.7, (-1, 0): 0.7}
        )
        cl = make_cluster("c", 1, 0, 1, [(0, 0)])
        assert design_weight(cl, design) == pytest.approx(1.0 / (0.5 * 0.7))
        cl_minus = make_cluster("c", 1, 0, -1, [(0, 0)])
        assert design_weight(cl_minus, design) == pytest.approx(1.0 / (0.5 * 0.3))

    def test_design4_balanced_all_four(self):
        design = SmartDesign.balanced(DesignKind.IV)
        for pathway in enumerate_pathways(design):
            assert design_weight(pathway_cluster(pathway), design) == pytest.approx(4.0)

    def test_design2_balanced_replication_mass_exact(self):
        design = SmartDesign.balanced(DesignKind.II)
        cais = enumerate_cais(design)
        for pathway in enumerate_pathways(design):
            cl = pathway_cluster(pathway)
            mass = sum(
                consistency_indicator(cl, d, design) * design_weight(cl, design)
                for d in cais
            )
            assert mass == pytest.approx(4.0)

    def test_replication_mass_identity_monte_carlo(self):
        # E[sum_d I(d) W] = |D| under any randomization probabilities
        rng = np.random.default_rng(7)
        design = SmartDesign(
            kind=DesignKind.II, p_a1=0.3, p_a2_given={(1, 0): 0.6, (-1, 0): 0.8}
        )
        cais = enumerate_cais(design)
        reps = 20_000
        masses = np.empty(reps)
        for i in range(reps):
            a1 = 1 if rng.uniform() < design.p_a1 else -1
            r = int(rng.uniform() < 0.4)  # arbitrary response mechanism
            a2nr = None
            if r == 0:
                a2nr = 1 if rng.uniform() < design.p_a2_given[(a1, 0)] else -1
            cl = make_cluster("c", a1, r, a2nr, [(0,)])
            masses[i] = sum(
                consistency_indicator(cl, d, design) * design_weight(cl, design)
                for d in cais
            )
        se = masses.std(ddof=1) / np.sqrt(reps)
        assert abs(masses.mean() - len(cais)) < 3 * se + 1e-12


# a1, r and each slot over valid and invalid values: 81 pathways per design
ALL_PATHWAYS = [
    Pathway(a1, r, a2nr, a2r)
    for a1, r, a2nr, a2r in itertools.product((1, -1, 0), (0, 1, 2), (None, 1, -1), (None, 1, -1))
]


def unbalanced(kind):
    # a distinct probability per cell, so that a factor read from the wrong cell shows
    p = {(1, 0): 0.6, (1, 1): 0.7, (-1, 0): 0.2, (-1, 1): 0.35}
    if kind is DesignKind.IV:  # response is ignored: one probability per arm
        p = {(1, 0): 0.6, (1, 1): 0.6, (-1, 0): 0.2, (-1, 1): 0.2}
    return SmartDesign(kind=kind, p_a1=0.3, p_a2_given={c: p[c] for c in SmartDesign.balanced(kind).p_a2_given})


class TestSecondStageRuleAgainstOracle:
    """Validation, consistency and weights against :func:`enumerate_pathways`."""

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_valid_exactly_on_the_oracle_pathways(self, kind):
        design = SmartDesign.balanced(kind)
        valid = [p for p in ALL_PATHWAYS if _pathway_violation(p, kind) is None]
        assert sorted(valid, key=repr) == sorted(map(Pathway._make, enumerate_pathways(design)), key=repr)

    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_consistency_and_weight_on_the_oracle_pathways(self, kind):
        design = unbalanced(kind)
        for p in map(Pathway._make, enumerate_pathways(design)):
            # the slot the oracle fills is the one the regime must match
            present = [slot for slot in ("a2nr", "a2r") if getattr(p, slot) is not None]
            for d in enumerate_cais(design):
                expected = int(p.a1 == d.a1 and all(getattr(p, slot) == getattr(d, slot) for slot in present))
                assert consistency_indicator(p, d, design) == expected, (p, d)
            prob = design.p_a1 if p.a1 == 1 else 1.0 - design.p_a1
            for slot in present:
                p_plus = design.p_a2_given[(p.a1, p.r)]
                prob *= p_plus if getattr(p, slot) == 1 else 1.0 - p_plus
            assert design_weight(p, design) == 1.0 / prob, p


    @pytest.mark.parametrize("kind", list(DesignKind))
    def test_helpers_refuse_exactly_the_pathways_validation_rejects(self, kind):
        design = unbalanced(kind)
        for p in ALL_PATHWAYS:
            message = _pathway_violation(p, kind)
            if message is None:
                consistency_indicator(p, enumerate_cais(design)[0], design)
                design_weight(p, design)
                continue
            for d in enumerate_cais(design):
                with pytest.raises(InconsistentCluster, match=f"^{re.escape(message)}$"):
                    consistency_indicator(p, d, design)
            with pytest.raises(InconsistentCluster, match=f"^{re.escape(message)}$"):
                design_weight(p, design)


class TestEmbeddedCai:
    @pytest.mark.parametrize("sign", [1.0, True])
    def test_rejects_signs_that_are_not_integers(self, sign):
        with pytest.raises(ValueError, match="a1 must be -1 or \\+1"):
            EmbeddedCai(sign)
        with pytest.raises(ValueError, match="a2nr must be -1 or \\+1"):
            EmbeddedCai(1, None, sign)

    def test_numpy_integers_are_signs(self):
        cai = EmbeddedCai(np.int64(1), None, np.int64(-1))
        assert cai == EmbeddedCai(1, None, -1)
        assert str(cai) == "(+1,-1)"


class TestSmartDesignValidation:
    def test_rejects_degenerate_probability(self):
        with pytest.raises(ValueError):
            SmartDesign(kind=DesignKind.II, p_a1=1.0, p_a2_given={(1, 0): 0.5, (-1, 0): 0.5})
        with pytest.raises(ValueError):
            SmartDesign(kind=DesignKind.II, p_a1=0.5, p_a2_given={(1, 0): 0.0, (-1, 0): 0.5})

    def test_rejects_wrong_cells(self):
        with pytest.raises(ValueError):
            SmartDesign(kind=DesignKind.II, p_a1=0.5, p_a2_given={(1, 1): 0.5, (1, 0): 0.5, (-1, 0): 0.5})
        with pytest.raises(ValueError):
            SmartDesign(kind=DesignKind.II, p_a1=0.5, p_a2_given={(1, 0): 0.5})

    def test_design4_response_independence(self):
        with pytest.raises(ValueError):
            SmartDesign(
                kind=DesignKind.IV,
                p_a1=0.5,
                p_a2_given={(1, 0): 0.5, (1, 1): 0.6, (-1, 0): 0.5, (-1, 1): 0.5},
            )
