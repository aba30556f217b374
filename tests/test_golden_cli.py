"""Golden CLI output: pins the sha256 and byte length of stdout.

Refactors that must not change behaviour are checked against these pins;
a deliberate change of printed output re-pins them and says so in
CHANGES.md.  To print fresh pins: ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import hashlib

import pytest

from fueterkit.catalog import REFERENCE_CASES
from fueterkit.cli import main

T = "1,2,-1"
S = "1/2,1,3"
T5 = "1,2,-1,1/2,3"
S5 = "1/2,1,3,-2,5/3"


def _apply_argv(case, fmt):
    hk = "ip(x,t)" if case.hk_power == 1 else f"ip(x,t)^{case.hk_power}"
    return ("apply", "--p", "3", "--q", "3", "--variant", case.variant, "--seed", case.seed_text,
            "--Hk", hk, "--Hl", "ip(y,s)", "--t", T, "--s", S, "--format", fmt)


def _apply_55_argv(variant, seed, fmt):
    return ("apply", "--p", "5", "--q", "5", "--variant", variant, "--seed", seed,
            "--Hk", "ip(x,t)", "--Hl", "ip(y,s)", "--t", T5, "--s", S5, "--format", fmt)


ARGVS = {
    **{f"apply-{case.index}-{fmt}": _apply_argv(case, fmt)
       for case in REFERENCE_CASES for fmt in ("plain", "json", "latex")},
    "examples": ("examples", "--t", T, "--s", S),
    "lemma5": ("lemma5", "--h", "r^4*rho^-1 + 3/2*r^2*rho^2", "--n", "2",
               "--s1", "1", "--s2", "0", "--k", "1", "--l", "2", "--p", "3", "--q", "5"),
    "fischer": ("fischer", "--p", "3", "--H", "ip(x,t)^3", "--t", T),
    # One large output in each style: (5,5) frame (m = 10, so e{10} and
    # e_{10}), ten-digit coefficients, 29-76 KB.
    "apply-55-minus-plain": _apply_55_argv("minus", "zbar^10", "plain"),
    "apply-55-latex": _apply_55_argv("minus", "zbar^10", "latex"),
    "apply-55-json": _apply_55_argv("minus", "zbar^10", "json"),
    # The plus variant carries the bivectors e{1,10} and e_{1,10}.
    **{f"apply-55-plus-{fmt}": _apply_55_argv("plus", "zbar^9", fmt) for fmt in ("plain", "latex")},
    # Seeds of order mu = 2, so apply goes through ft_mu with monogenic factors.
    "apply-mu-33-minus": ("apply", "--p", "3", "--q", "3", "--variant", "minus", "--seed", "zbar^6*z^2",
                          "--Hk", "x1*e1 - x2*e2", "--Hl", "y1*e4 - y2*e5"),
    "apply-mu-55-plus": ("apply", "--p", "5", "--q", "5", "--variant", "plus", "--seed", "zbar^7*z^2",
                         "--Hk", "x1*e{1} - x2*e{2}", "--Hl", "1"),
}
# The bivariate printer and the per-layer expression printer in their other styles.
ARGVS.update({f"{name}-{fmt}": ARGVS[name] + ("--format", fmt)
              for name in ("lemma5", "fischer") for fmt in ("json", "latex")})

# name -> (sha256 of stdout, byte length of stdout)
GOLDEN = {
    "apply-1-json": ("101a0288329010e82f1ac15959ee8d1a3a270dfac82aac37c4b90bfcb68de450", 18402),
    "apply-1-latex": ("946e59c17654ce4e05bf635ea7d4c6c4715f16407657d02ef4278ab242f34bc5", 9168),
    "apply-1-plain": ("b402d7c498c2ab150cec5b35cedb131aa683756f897bbd039f0120192c33bd8b", 5390),
    "apply-2-json": ("93f73c4a375c3e725b3d8c56f9bb860478361fd4d559524c116a1013007d2e2f", 7001),
    "apply-2-latex": ("bc276af02348abdae66ee09991eca367641e0b1deda627f5f0a8f84b20b6df93", 2485),
    "apply-2-plain": ("536eebace1ec641fa0a08e98a1dbb418c23a52767725049e8a6917deb6bffa37", 1606),
    "apply-3-json": ("34c6c350d984e2ec073885d0dcae624160215040cda1316fbd398cc6d7975cee", 22910),
    "apply-3-latex": ("117c667383ccc836e37f66194c1f6549495d2d3acf48307a11c5536e614dc35a", 10534),
    "apply-3-plain": ("72e484d6b8fa1da1f2fb67913e1ed41e7d96669083168afa981f0ca3a0479f75", 6489),
    "apply-4-json": ("610122a0560d6a56b3dfe67e472b71938f041733fc46191dc1b82fef80ba60af", 10364),
    "apply-4-latex": ("fd6fed6de15b0521e0cbec04e59a7d703e1ebc6205068c2d89a5e5578afb11dc", 5554),
    "apply-4-plain": ("85eac44555680eb1f78076c4bdf5ebd293bead1869ceb0c04f23a3e0beac5307", 3286),
    "apply-5-json": ("762086a81ff37771737ffcd57a8c59b2ccf44a8f4e16b6feaac97caba05547ff", 8068),
    "apply-5-latex": ("2b1db1047647546fddf1a691ee75bbd9f10b2c40cfa7d26878446ac632c5728b", 3380),
    "apply-5-plain": ("356059e65e89e03838efeb5b08bc06e02eba5b452f5448a16137d1d7e786524a", 2054),
    "apply-55-json": ("20a5dae53078c73da7fdff56189ca3486bdd117b0c1756b1880d92ae86fd7f3c", 76173),
    "apply-55-latex": ("4f7170c2784a3ae694211ed563a69b53f83b52bcb8b05ee36d6351e5d5d9d866", 43665),
    "apply-55-minus-plain": ("0d9d0fcb3f3dc57881b0a180c9b1653d7e967611b30e79b860084d6a5bb32e79", 28780),
    "apply-55-plus-latex": ("6b9a190bc449740ce56897bfe3467acbfa3ca6d84d578d90e6a8ca1afa72f289", 133132),
    "apply-55-plus-plain": ("82e7f93cf929af10decac20eec5e84ab8d17f695431ffcddf796a01622749119", 87280),
    "apply-6-json": ("31746d556d2436a9b1ce15bd30817858e5826c3567473d33111c411c2159d8c9", 16795),
    "apply-6-latex": ("4d69200a203e48073a2a7fe582f5d89c70a157dbb71dbd6e4a1483e0fc0f8e7a", 8045),
    "apply-6-plain": ("0aab8c46e8e05fa24351caabbb12556ffbe5257d648084bbe92b5a9bbe91945e", 4990),
    "apply-mu-33-minus": ("0e10a659400143bdcbc1d094f71271dbcbc491b6ebe92721aad36ffe31b5fa13", 297),
    "apply-mu-55-plus": ("2084054c702dc81b35b61f2e31260939d6f8a7ddd101ecd7e4f2403b9155d642", 1677),
    "examples": ("09688e1081a85e77ef3e299d9c4b69aa9fc58c0a8431df4e540126c16e157b8b", 460),
    "fischer": ("9e1755a0eb850cf8a132d377b4ac548b7c07d73c899bc90e7d6d46ac2e763173", 1015),
    "fischer-json": ("ab8c069896e8ab959666001fb1516b4de9a335535a3e36cd39c14b95c9f2a795", 4818),
    "fischer-latex": ("d6fee4ad3f3ad2286d87c22bf126d8b6a5bacdab5beb4e282252c88d1d0663a7", 2177),
    "lemma5": ("57d52f6fa2231a45333c7cf0dd41677f35e924d91c6ee00f18d74a41b9333029", 67),
    "lemma5-json": ("a27396ca2b2db4b4a8a05a35f5297f618dc430ae7859c3517780f1098eb2f2ae", 226),
    "lemma5-latex": ("ea5599daa1e12af5f56ce9a2adcdf09a80cb18457a0c40a9369e4ee1ab58cc32", 92),
}


def _stdout(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out.encode()


@pytest.mark.parametrize("name", sorted(ARGVS))
def test_stdout_matches_pin(capsys, name):
    data = _stdout(capsys, ARGVS[name])
    assert (hashlib.sha256(data).hexdigest(), len(data)) == GOLDEN[name]


if __name__ == "__main__":
    import contextlib
    import io

    for name in sorted(ARGVS):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(ARGVS[name])) == 0
        data = buf.getvalue().encode()
        print(f'    "{name}": ("{hashlib.sha256(data).hexdigest()}", {len(data)}),')
