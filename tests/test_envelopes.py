"""Golden ``--json`` envelopes, one input per route through the growth
pipeline: a root of unity, an integer root, two large prime integer roots,
two close roots near 10**33, numerically isolated roots, a rational quasi-unipotent matrix, a singular
matrix with a rotation block and a proven modulus tie; plus ``endo
--kuenneth``, ``quiver`` on the 3-Kronecker quiver, ``twist`` on each
bound and entropy branch, ``classify`` in both contexts, ``linebundle``
with and without a positivity flag and ``estimate`` with and without the
residual warning.  Then the envelope's ``warnings`` for library
warnings raised outside ``growth``.

A refactor of the exact pipeline must keep these bytes unchanged.  Each
command runs in-process with the default ``--tol`` and ``--precision``.
"""

from __future__ import annotations

import io
import json

import pytest

from catentropy import exact_linalg
from catentropy.cli import main

#: C(x^2 - 2x - 1) + C(x^4 + 6x^2 + 1): the moduli tie at 1 + sqrt(2).
TIED_ACTION = [
    [0, 1, 0, 0, 0, 0], [1, 2, 0, 0, 0, 0], [0, 0, 0, 0, 0, -1],
    [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, -6], [0, 0, 0, 0, 1, 0],
]

#: C((x^2 - 2x - 1)^2) + C((x^4 + 6x^2 + 1)(x^5 - x - 1)): the same tie,
#: between two squarefree parts of different multiplicity, so it decides
#: s.  Their 11 roots put the squared-moduli polynomial of their product
#: (degree 66) over the tie proof's degree cap.
OVER_CAP_TIE_ACTION = [
    [0, 0, 0, -1] + [0] * 9,
    [1, 0, 0, -4] + [0] * 9,
    [0, 1, 0, -2] + [0] * 9,
    [0, 0, 1, 4] + [0] * 9,
    [0] * 12 + [1],
    [0] * 4 + [1] + [0] * 7 + [1],
    [0] * 5 + [1] + [0] * 6 + [6],
    [0] * 6 + [1] + [0] * 5 + [6],
    [0] * 7 + [1] + [0] * 4 + [1],
    [0] * 8 + [1] + [0] * 4,
    [0] * 9 + [1] + [0] * 3,
    [0] * 10 + [1, 0, -6],
    [0] * 11 + [1, 0],
]

CASES = [
    (
        "growth-root-of-unity",
        ["growth"],
        {"rows": [[0, -1], [1, 0]]},
        (
            '{"command":"growth",'
            '"inputs_digest":"fd82fa657722e264fea4b519076984a0b1c5d4ada36469251249d9e81ad132f5",'
            '"results":{"dominant_factors":[{"factor":"x^2 + 1",'
            '"multiplicity":1}],"quasi_unipotent_order":4,"rho":1,'
            '"rho_exact":"1","rho_interval":["1","1"],"s":0,'
            '"tied_moduli":false},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "growth-integer-root",
        ["growth"],
        {"rows": [[1, 1], [0, 1]]},
        (
            '{"command":"growth",'
            '"inputs_digest":"0226e53aee4925d78c2847e9d193220abd1183d9ed3496f224e7297647fb256a",'
            '"results":{"dominant_factors":[{"factor":"x - 1",'
            '"multiplicity":2}],"quasi_unipotent_order":1,"rho":1,'
            '"rho_exact":"1","rho_interval":["1","1"],"s":1,'
            '"tied_moduli":false},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        # Both eigenvalues are primes above 10**5: the integer roots are
        # found however hard the constant term is to factor.
        "growth-large-integer-roots",
        ["growth"],
        {"rows": [[100003, 0], [0, 100019]]},
        (
            '{"command":"growth",'
            '"inputs_digest":"8605b72215ea1ca1ed3d3d30ad1847df12a4b91a2cf20d70fee289d2ebef36a0",'
            '"results":{"dominant_factors":[{"factor":"x^2 - 200022*x + 10002200057",'
            '"multiplicity":1}],"quasi_unipotent_order":null,"rho":100019,'
            '"rho_exact":"100019","rho_interval":["100019","100019"],"s":0,'
            '"tied_moduli":false},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        # rho = 10**33 + 4 + sqrt(24) is 5.4e16 from its nearest float, far
        # beyond --tol: the interval stays as certified, without the float.
        "growth-huge-close-roots",
        ["growth"],
        {"rows": [[10**33 + 7, 3], [5, 10**33 + 1]]},
        (
            '{"command":"growth",'
            '"inputs_digest":"96f92b60c99c324f513065cf2239935d5f57036623143af9b7abab3be13c5ed6",'
            '"results":{"dominant_factors":[{"factor":"x^2 - '
            '2000000000000000000000000000000008*x + '
            '1000000000000000000000000000000007999999999999999999999999999999992",'
            '"multiplicity":1}],"quasi_unipotent_order":null,"rho":1e+33,'
            '"rho_exact":{"modulus_rank":0,"root_of":"x^2 - '
            '2000000000000000000000000000000008*x + '
            '1000000000000000000000000000000007999999999999999999999999999999992"},'
            '"rho_interval":["250000000000000000000000000000002224744871391589049'
            '/250000000000000000","1000000000000000000000000000000008898979485566356197'
            '/1000000000000000000"],"s":0,"tied_moduli":false},'
            '"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "growth-numeric",
        ["growth"],
        {"rows": [[2, 1], [1, 1]]},
        (
            '{"command":"growth",'
            '"inputs_digest":"bd0ac3c0ca442811266cd8ab024b77897fa3351f892110576ee6ee7444b3f5d9",'
            '"results":{"dominant_factors":[{"factor":"x^2 - 3*x + 1",'
            '"multiplicity":1}],"quasi_unipotent_order":null,'
            '"rho":2.61803398875,"rho_exact":{"modulus_rank":0,'
            '"root_of":"x^2 - 3*x + 1"},'
            '"rho_interval":["40906781074217107/15625000000000000",'
            '"2618033988749894903/1000000000000000000"],"s":0,'
            '"tied_moduli":false},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "growth-rational-quasi-unipotent",
        ["growth"],
        {"rows": [[0, -2], ["1/2", 0]]},
        (
            '{"command":"growth",'
            '"inputs_digest":"695e67c6037078bad4b07e134c25e1578cafd6c94ae0eb10105442b3f809c9ab",'
            '"results":{"dominant_factors":[{"factor":"x^2 + 1",'
            '"multiplicity":1}],"quasi_unipotent_order":null,"rho":1,'
            '"rho_exact":"1","rho_interval":["1","1"],"s":0,'
            '"tied_moduli":false},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "growth-singular-rotation",
        ["growth"],
        {"rows": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]},
        (
            '{"command":"growth",'
            '"inputs_digest":"98422e87421dcbd0725db82a74129bbc19568094d517f180a79cecb8a3cb0076",'
            '"results":{"dominant_factors":[{"factor":"x^2 + 1",'
            '"multiplicity":1}],"quasi_unipotent_order":null,"rho":1,'
            '"rho_exact":"1","rho_interval":["1","1"],"s":0,'
            '"tied_moduli":false},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "growth-tie",
        ["growth"],
        {"rows": TIED_ACTION},
        (
            '{"command":"growth",'
            '"inputs_digest":"6f523ebc29ec3944bc2c5c8d57dae44bbb1a6ecd09e7b443776a5ff8ef1cfed0",'
            '"results":{"dominant_factors":[{"factor":"x^6 - 2*x^5 + 5*x^4 - 12*x^3 - 5*x^2 - 2*x - 1",'
            '"multiplicity":1}],"quasi_unipotent_order":null,'
            '"rho":2.41421356237,"rho_exact":{"modulus_rank":0,'
            '"root_of":"x^6 - 2*x^5 + 5*x^4 - 12*x^3 - 5*x^2 - 2*x - 1"},'
            '"rho_interval":["2414213562373094923/1000000000000000000",'
            '"2414213562373095049/1000000000000000000"],"s":0,'
            '"tied_moduli":false},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "endo-kuenneth",
        ["endo", "--kuenneth"],
        {"dim": 2, "actions": {"0": [[1]], "1": [[2, 1], [1, 1]], "2": [[1]]}},
        (
            '{"command":"endo",'
            '"inputs_digest":"e8c1dc68ddf0bb040e780e6eef820989ef30b9f442bdbadc9d1c1d88700280ea",'
            '"results":{"degrees":{"d_p":[1,2.61803398875,1],'
            '"per_codimension":[{"dominant_factors":[{"factor":"x - 1",'
            '"multiplicity":1}],"quasi_unipotent_order":1,"rho":1,'
            '"rho_exact":"1","rho_interval":["1","1"],"s":0,'
            '"tied_moduli":false},'
            '{"dominant_factors":[{"factor":"x^2 - 3*x + 1","multiplicity":1}],'
            '"quasi_unipotent_order":null,"rho":2.61803398875,'
            '"rho_exact":{"modulus_rank":0,"root_of":"x^2 - 3*x + 1"},'
            '"rho_interval":["40906781074217107/15625000000000000",'
            '"2618033988749894903/1000000000000000000"],"s":0,'
            '"tied_moduli":false},{"dominant_factors":[{"factor":"x - 1",'
            '"multiplicity":1}],"quasi_unipotent_order":1,"rho":1,'
            '"rho_exact":"1","rho_interval":["1","1"],"s":0,'
            '"tied_moduli":false}],"plateau":[1,1],"s_p":[0,0,0]},'
            '"h_cat":0.962423650119,"h_pol":0,'
            '"joint_action":{"dominant_factors":[{"factor":"x^3 - 4*x^2 + 4*x - 1",'
            '"multiplicity":1}],"quasi_unipotent_order":null,'
            '"rho":2.61803398875,"rho_exact":{"modulus_rank":0,'
            '"root_of":"x^3 - 4*x^2 + 4*x - 1"},'
            '"rho_interval":["40906781074217107/15625000000000000",'
            '"2618033988749894903/1000000000000000000"],"s":0,'
            '"tied_moduli":false},"self_product":{"consistent":true,'
            '"degree_mismatches":[],"s_mismatches":[]}},"version":"0.1.0",'
            '"warnings":[]}'
        ),
    ),
    (
        "quiver-kronecker-3",
        ["quiver"],
        {"vertices": 2, "arrows": [[1, 2], [1, 2], [1, 2]]},
        (
            '{"command":"quiver",'
            '"inputs_digest":"bb7ae1b9b8b1a7d6cc8915221d3e65775772690790117f81e2cb1a000628c3ba",'
            '"results":{"gram":[["1","-3"],["0","1"]],"isometry":[["-1","3"],'
            '["-3","8"]],"report":{"crosscheck":{"residual":1.98495706921e-14,'
            '"rho_hat":6.85410196625,"s_hat":-2.59152920791e-14,"window":[84,'
            '332]},"crosscheck_consistent":true,"h_cat":1.92484730024,'
            '"h_pol":0,'
            '"mass_growth_note":"the same values give the mass growth data whenever a numerical stability condition exists; that hypothesis is not verified here",'
            '"signature":{"dominant_factors":[{"factor":"x^2 - 7*x + 1",'
            '"multiplicity":1}],"quasi_unipotent_order":null,'
            '"rho":6.85410196625,"rho_exact":{"modulus_rank":0,'
            '"root_of":"x^2 - 7*x + 1"},'
            '"rho_interval":["107095343222651321/15625000000000000",'
            '"1713525491562421177/250000000000000000"],"s":0,'
            '"tied_moduli":false},"skipped_pairs":[],'
            '"used_pair_sum_fallback":false}},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "twist-spherical-slope-zero",
        ["twist", "--kind", "spherical", "--d", "1", "--t", "0.5",
         "--A", "2", "--B", "3", "--n", "10"],
        None,
        (
            '{"command":"twist",'
            '"inputs_digest":"0eb871b6ae798baa301a22ac9e0e81e49a98dadd4a74f6347cd683c59f551f84",'
            '"results":{"bound_at_n":35.974425414,"h_pol_at_t":[0,1],'
            '"h_pol_branches":{"t<0":[0,1],"t=0":[0,1],"t>0":[0,1]},'
            '"h_t":"(1-d)t = 0*t for t <= 0; 0 for t > 0","h_t_at_t":0,'
            '"kind":"spherical","n":10,"note":null,'
            '"recurrence_at_n":35.974425414,"unknown_at_t":false},'
            '"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "twist-spherical-negative-t",
        ["twist", "--kind", "spherical", "--d", "3", "--t=-0.5",
         "--A", "1", "--B", "1", "--n", "12"],
        None,
        (
            '{"command":"twist",'
            '"inputs_digest":"1434b2e3f2b559872623d2ab3a300353508d66275fe7297f86f1394f5e5df611",'
            '"results":{"bound_at_n":94720.4975372,"h_pol_at_t":0,'
            '"h_pol_branches":{"t<0":0,"t=0":[0,1],"t>0":[0,"inf"]},'
            '"h_t":"(1-d)t = -2*t for t <= 0; 0 for t > 0","h_t_at_t":1,'
            '"kind":"spherical","n":12,"note":null,'
            '"recurrence_at_n":57450.9263422,"unknown_at_t":false},'
            '"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "twist-spherical-orth",
        ["twist", "--kind", "spherical", "--d", "2", "--t", "0.5",
         "--A", "1.5", "--B", "1", "--n", "20", "--orth"],
        None,
        (
            '{"command":"twist",'
            '"inputs_digest":"8b67d1e6adda3f0c3382aeaa09570f36e857ecef0d78d3d6ac4881adba6d00d0",'
            '"results":{"bound_at_n":7.28532302986,"h_pol_at_t":0,'
            '"h_pol_branches":{"t<0":0,"t=0":[0,1],"t>0":0},'
            '"h_t":"(1-d)t = -1*t for t <= 0; 0 for t > 0","h_t_at_t":0,'
            '"kind":"spherical","n":20,"note":null,'
            '"recurrence_at_n":7.28503767663,"unknown_at_t":false},'
            '"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "twist-ptwist-unknown",
        ["twist", "--kind", "ptwist", "--d", "2", "--t", "0.5",
         "--A", "1", "--B", "2", "--n", "8"],
        None,
        (
            '{"command":"twist",'
            '"inputs_digest":"c5df269f10e84fd76f88f3c5f19361ec4804e4abf2d1b70127228db47205589d",'
            '"results":{"bound_at_n":3.90677523754,"h_pol_at_t":[0,"inf"],'
            '"h_pol_branches":{"t<0":0,"t=0":[0,1],"t>0":[0,"inf"]},'
            '"h_t":"-2dt = -4*t for t <= 0; 0 for t > 0","h_t_at_t":0,'
            '"kind":"ptwist","n":8,"note":null,'
            '"recurrence_at_n":3.90677502296,"unknown_at_t":true},'
            '"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "twist-ptwist-negative-t",
        ["twist", "--kind", "ptwist", "--d", "1", "--t=-0.3",
         "--A", "1", "--B", "1", "--n", "15"],
        None,
        (
            '{"command":"twist",'
            '"inputs_digest":"894b7caa4abd2fb9e64e56f29deccac0e9e95274e7d26e71f6b6299276eaf3d9",'
            '"results":{"bound_at_n":9857.34183737,"h_pol_at_t":0,'
            '"h_pol_branches":{"t<0":0,"t=0":[0,1],"t>0":[0,"inf"]},'
            '"h_t":"-2dt = -2*t for t <= 0; 0 for t > 0","h_t_at_t":0.6,'
            '"kind":"ptwist","n":15,"note":null,'
            '"recurrence_at_n":7301.85651391,"unknown_at_t":false},'
            '"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "classify-a2cy3-hyperbolic",
        ["classify", "--context", "a2cy3", "T1", "T2^-1"],
        None,
        (
            '{"command":"classify",'
            '"inputs_digest":"6058d4dd93b01f9453df7e210bd814dcf03a8cda2ab1897d222569d8b589b91c",'
            '"results":{"classification":"hyperbolic","crosscheck":{"consistent":true,'
            '"log_rho":0.962423650119,"s":0},"h_cat":{"exact":"log((3+sqrt(5))/2)",'
            '"float":0.962423650119},"h_pol":0,"pseudo_anosov":true,"trace":3},'
            '"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "classify-a2cy3-parabolic",
        ["classify", "--context", "a2cy3", "T1^3", "[2]"],
        None,
        (
            '{"command":"classify",'
            '"inputs_digest":"c56eb0d0738deb51baaa373cee96e3a2c2ecd7da40ade6a7cb32dfef59423ce0",'
            '"results":{"classification":"parabolic_non_central","crosscheck":{"consistent":true,'
            '"log_rho":0,"s":1},"h_cat":{"exact":"0","float":0},"h_pol":1,'
            '"pseudo_anosov":false,"trace":2},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "classify-elliptic-rotation",
        ["classify", "--context", "elliptic", "S"],
        None,
        (
            '{"command":"classify",'
            '"inputs_digest":"361b93d7530324dbd512e4a52b4fec5471704d71886d193eec2bd673081e2ca1",'
            '"results":{"classification":"elliptic_or_central","crosscheck":{"consistent":true,'
            '"log_rho":0,"s":0},"h_cat":{"exact":"0","float":0},"h_pol":0,'
            '"pseudo_anosov":false,"trace":0},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "linebundle-nef-cohomology",
        ["linebundle"],
        {
            "dim": 2,
            "c1_action": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            "nef": "nef",
            "cohomology": {"0": [(n + 1) * (n + 2) // 2 for n in range(1, 41)]},
        },
        (
            '{"command":"linebundle",'
            '"inputs_digest":"d77f3da2747245f02d51b237b4cdc0adb4dafe4476e13fa8205a56e0aacf807c",'
            '"results":{"empirical_fits":{"0":{"residual":0.00164655181495,'
            '"rho_hat":1.0054254028,"s_hat":1.74423946123,"window":[11,40]}},'
            '"empirical_s_hat":1.74423946123,"exp_signature":{"dominant_factors":'
            '[{"factor":"x - 1","multiplicity":3}],"quasi_unipotent_order":null,'
            '"rho":1,"rho_exact":"1","rho_interval":["1","1"],"s":2,'
            '"tied_moduli":false},"h_cat":0,"h_pol_exact":2,"h_pol_lower":2,'
            '"h_pol_upper":2},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "linebundle-unknown-flag",
        ["linebundle"],
        {
            "dim": 3,
            "c1_action": [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
            "nef": "unknown",
        },
        (
            '{"command":"linebundle",'
            '"inputs_digest":"9bc189a4fbc9938724c5cf562467e5229b7f7d2766dba14b15949776ab1bc8e0",'
            '"results":{"empirical_fits":null,"empirical_s_hat":null,'
            '"exp_signature":{"dominant_factors":[{"factor":"x - 1",'
            '"multiplicity":4}],"quasi_unipotent_order":null,"rho":1,'
            '"rho_exact":"1","rho_interval":["1","1"],"s":3,"tied_moduli":false},'
            '"h_cat":0,"h_pol_exact":null,"h_pol_lower":3,"h_pol_upper":3},'
            '"version":"0.1.0","warnings":["no positivity flag: only the bounds '
            '[nu, dim] are certified"]}'
        ),
    ),
    (
        "estimate-polynomial",
        ["estimate"],
        {"n_start": 1, "values": [n * n + 3 * n + 1 for n in range(1, 41)]},
        (
            '{"command":"estimate",'
            '"inputs_digest":"1082f08ae65ff4c554f335abfd56dd077aa9ddff02bcc53d0493900b7c59b942",'
            '"results":{"residual":0.00151093112825,"rho_hat":1.00511902383,'
            '"s_hat":1.75514532823,"window":[11,40]},"version":"0.1.0","warnings":[]}'
        ),
    ),
    (
        "estimate-oscillating-residual",
        ["estimate"],
        {"n_start": 3, "values": [1 if n % 2 else 50 for n in range(1, 25)]},
        (
            '{"command":"estimate",'
            '"inputs_digest":"d4a6bbba68e1d0fb7ca73fca7e2cfedab47f85f68de2c8cc05e6ccd237abd223",'
            '"results":{"residual":1.94612049744,"rho_hat":0.962667167881,'
            '"s_hat":1.22867232575,"window":[9,26]},"version":"0.1.0",'
            '"warnings":["residual 1.946 exceeds 0.1: a single regression cannot '
            'separate upper from lower growth here"]}'
        ),
    ),
]


def run_json(tmp_path, command, doc=None):
    """Exit code and stdout of ``--json`` *command*, reading *doc* from a file."""
    args = list(command)
    if doc is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        args.insert(1, str(path))
    buf = io.StringIO()
    return main(["--json", *args], stdout=buf), buf.getvalue()


@pytest.mark.parametrize(
    "command, doc, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_envelope_is_pinned(tmp_path, command, doc, expected):
    assert run_json(tmp_path, command, doc) == (0, expected + "\n")


def test_golden_tie_is_proven_at_the_first_level(tmp_path, monkeypatch):
    levels = []
    build = exact_linalg._numeric_classes

    def spy(*args):
        levels.append(args[2])
        return build(*args)

    monkeypatch.setattr(exact_linalg, "_numeric_classes", spy)
    code, out = run_json(tmp_path, ["growth"], {"rows": TIED_ACTION})
    assert code == 0
    assert json.loads(out)["results"]["tied_moduli"] is False
    assert levels == [64]


def test_twist_snap_warning_in_envelope_once(tmp_path, capsys):
    code, out = run_json(
        tmp_path,
        ["twist", "--kind", "spherical", "--d", "2",
         "--t", "1e-15", "--A", "1", "--B", "1", "--n", "10"],
    )
    assert code == 0
    assert json.loads(out)["warnings"] == [
        "t = 1e-15 is within 1e-12 of 0; using the t = 0 branch"
    ]
    assert capsys.readouterr().err == ""


def test_endo_tied_moduli_warning_in_envelope_once(tmp_path, capsys):
    # The codimension-1 signature and the joint action both tie; the
    # warning appears once.
    code, out = run_json(
        tmp_path,
        ["endo"],
        {"dim": 2, "actions": {"0": [[1]], "1": OVER_CAP_TIE_ACTION, "2": [[1]]}},
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["degrees"]["per_codimension"][1]["tied_moduli"] is True
    assert doc["warnings"] == [
        "root moduli stayed inseparable at the precision cap; "
        "the reported exponent is the conservative larger value"
    ]
    assert capsys.readouterr().err == ""


def test_endo_proven_tie_has_no_warning(tmp_path, capsys):
    # The tie of TIED_ACTION is proven in every signature endo computes.
    code, out = run_json(
        tmp_path,
        ["endo"],
        {"dim": 2, "actions": {"0": [[1]], "1": TIED_ACTION, "2": [[1]]}},
    )
    assert code == 0
    doc = json.loads(out)
    per_codim = doc["results"]["degrees"]["per_codimension"]
    assert [entry["tied_moduli"] for entry in per_codim] == [False] * 3
    assert per_codim[1]["rho_exact"] == {
        "modulus_rank": 0,
        "root_of": "x^6 - 2*x^5 + 5*x^4 - 12*x^3 - 5*x^2 - 2*x - 1",
    }
    assert doc["warnings"] == []
    assert capsys.readouterr().err == ""
