"""Every run of the CLI corpus (``tests/cli_corpus.py``) keeps its bytes.

Each pin is the sha256 of one run's exit code, stdout, stderr and written
files (a manifest's ``wall_ms`` blanked), printed by the corpus script on
the code as it stood before the exact layer dropped its ``dims`` option.
A change that alters a run's bytes on purpose updates its pin and says why:
the three ``kg-check --grid q0:64:-9:9,q1:64:-9:9`` runs and the two
``landau-reduce-check --points 12`` runs were re-pinned when
``fd_derivative`` began applying its stencil as a Fourier multiplier,
which moves their printed numbers in the low bits only.
"""

import subprocess
import sys
from pathlib import Path

from cli_corpus import RUNS, label, run_digest

PINS = {
    'star --expr1 q0 --expr2 p0':
        'c73e81b4eaa74ffcb67c83e7b6d8bce9f7b470a604bd06a8c095b8714e03fa26',
    'star --expr1 q1 --expr2 p1 --metric=-+++':
        '572ec118cb713d22ae65094ee76e99ff9745750c53ddf3e84fdcce191210f7f0',
    "star --expr1 'x*px + y' --expr2 'py^2*x - 1/3*i'":
        '8e933c638596e743744cc9081fc42435f27c3c2ac6e7df6e6b1ef7094cf6f43f',
    "star --expr1 '(q0 + p0)^3' --expr2 '(q1 - i*p1)^2*p0'":
        '6ed638919be576f163d10660ac7e0643a1118c77a69dd09a16c5879525497e1c',
    "star --expr1 '2*(q2 + p2)*(q3 - p3)/5' --expr2 'q2^2*p3' --metric -+++":
        '1e47197ca3c450facb610df2f321bd07bc99a5075f8df370c5ea6e9a5999e8f0',
    "star --expr1 '-(q0 - i)^0*3/4^2' --expr2 --q3 --out star.txt":
        '6d323ddde62c582ed8f9ab870bdaafab40017a2b77ce5b8769b693c4899f7369',
    "star --expr1 'q0*p0' --expr2 'p0*q0' --manifest m.json":
        'fc58687f5895d2906faf3805e6e0e31369a961530902b8ab6428cceda62777fa',
    "star --expr1 'q0*p0*q1*p1*q2*p2*q3*p3 + 1/2' --expr2 '(q0 + p1 + q2 + p3)^2'":
        'f5103912ce35d888af35cc5e95751cbf9ec27b03d2feea59d72837b3a8c41d13',
    'bracket --expr1 q0 --expr2 p0':
        '4fd1d51fbb21f2d6f7fe895dfa536bd7c557274c0d1f324106727ac5022c5f87',
    "bracket --expr1 'q0*p1' --expr2 -p0 --metric -+++":
        '2c82d364e8e299ca0515c09fb3f77c029e50c738a1b321799ef8506786450244',
    "bracket --expr1 '(x + py)^2' --expr2 'y*px^3' --out bracket.txt":
        '83707e945dcbcc807c1b2e083888ebe491813901b5ca37cb7008660a8b1c72f5',
    'algebra-check --degree 1':
        'f59c98c8bdd3b10acf57b0c54538a380626c7cf321ec44ca12bfd06e90788082',
    'algebra-check --degree 2 --metric=-+++ --out algebra.json':
        '6bb8509897ccac08cb724b99dbda1ce050213338ba8cc62d02dc77b6827bd8f3',
    'casimir-check':
        '291e404db846796e0cea155ad4009be70bb24a0099e9a9b589da10dae557d3ab',
    'casimir-check --degree-p2 1 --metric=-+++':
        '74c47c9199994a5e77188a668cd7f6f0e3bf649e71e8f36a878eafb39b7d6cf5',
    'clifford-check':
        'fc7276374325f36ed06f1dbee31c2e375d42fc40bfecef67304b1ee52a08616d',
    'clifford-check --metric=-+++':
        'a423d3dcc69a20a85a2b04a46b5592735adfe0d4020f1cd2fd0df99a3615eeb4',
    'clifford-check --gamma-file weyl.json':
        '54e620c365eaa4555ae094978cd06f2ef79355e9de1a9a4698e5603d71d62037',
    'clifford-check --gamma-file weyl.json --metric=-+++':
        '3446b298315dd1682064d425a40a9a56b9c029e69e9c70638b0da9989d3ba72d',
    'clifford-check --gamma-file i-weyl.json --metric=-+++':
        'c1192881a270b7de7cb14a0fd064b294fef8c6cac5b07efdaea43a31fac5cf3a',
    'clifford-check --gamma-file perturbed.json':
        '487f03be0abef2061ccd06b5594f16b6b25318abc41bab1ce0499fb329dbc4b1',
    'dirac-square --degree 1':
        '4833253083f12e3dfe8868540e0fa5121b225c8e9af3d8fa4e89a9fdee467590',
    'dirac-square --degree 1 --metric=-+++':
        '169f5ad2569af479e400c2c7f5c94fffab94973dfba3ce79b3219e42925d56e2',
    'kg-check --grid q0:64:-9:9,q1:64:-9:9 --tol 1e-5':
        'bca31cf1269013d048d46f7fe0593d8292c5408bd93a7edaac93a74a61ebd6a8',
    'kg-check --grid q0:64:-9:9,q1:64:-9:9 --tol 1e-12':
        '03d6390efefe5dd054c190f7cbfab52f327ba2241a301e4e19a11126ac2e191a',
    'kg-check --grid q0:64:-9:9,q1:64:-9:9 --metric=-+++ --tol 1e-5 --out kg.json':
        '46be77a55acae2c845e78d179931d33d82b407a75d331e63ee3e843158b8c538',
    'landau-spectrum':
        'f74101d5596eb8013aee06574b46227e3e4c903a1bc05f9a7b193cd80e23bf13',
    'landau-spectrum --n 0..5 --s -1 --eB 2 --out levels.csv':
        '95919c4d0da05a65a20bd03afca7950e0ef47ae74ccfd9fb73ba6fd3b2c05eb7',
    'landau-eigen':
        '8b30592996df61b96fafcfca7b8f9bc77a210e673cfbe6bc5a4a40ce024ff2fe',
    'landau-eigen --n 3 --eB 0.5 --points 41 --out eigen.csv':
        '6502ed17365b21cfa8f7f942b848a5d3e7d3c23b2bbf5fe0d2e71f3f8ded6ad7',
    'landau-eigen --n 2 --s -1 --z-max 12 --points 25':
        'e97bdc50859d06e6a7f31d24d59b2a9d814062ea3b34f04785ba82ed151df64c',
    'landau-reduce-check --points 12':
        '77a1454955729e107552c55d27e921445556b6acba280497948b410b2ffa46b3',
    'landau-reduce-check --n 1 --s -1 --points 12 --out reduce.json':
        '379815be65fba5490c9862d4499e48d69c3c67e21ae096f3ada49bdc10c0558b',
    'wigner --grid q:16:-5:5,p:16:-5:5 --out w.csv':
        '0aee2dc4d4efdcb9a13b1ee8e9aaba96d49860b5998364ee09a80d7ef14e7ffb',
    'wigner --grid q:16:-5:5,p:16:-5:5 --format bin --out w.bin':
        '99ce0890c80d2e5a15fe094b5fe0649cf03aec3d9baa33ea33db4b11c56237f8',
    'wigner --kind landau --points 8 --out wl.csv':
        '4864ae2fad59b263a3da4e774193d331441be4c3a28cb9f7d31e7da65c0f9315',
    'wigner --kind landau --n 1 --s -1 --points 8 --format bin --out wl.bin':
        '8c5d068fdf02daf1683203c9d7280dd6a0b27ad1fdc6b54a9dd96d5cd645e9e5',
    'specfun-eval --function kummer-m --a 0.5 --b 1.5 --x 0:5:11':
        '9923f337c7036459696148a6fab5111a1552c9f42d0cd1c4af5bd0c5fb30dddd',
    'specfun-eval --function kummer-u --a 1.5 --x 0.1:5:11':
        'e4ffae78cd63163cdedc0bb1b02ef85df80244cd58aac9790fa85f6a6312f57a',
    'specfun-eval --function laguerre --n 3 --x -5:-1:3 --out lag.csv':
        '791d0ef0bd636fd72dcf803ec077f282960724de2e394d8f455a8b10ec90945b',
    '':
        '11534492ebbad8f2a131d3092d3f68d594969f80e8a87a6ab35fca0fb4cdfade',
    '--version':
        'aed61a2aa30b3a9787fc6434fdb3bb8970ea2528de35633f0eaa19fe61034cb6',
    'no-such-command':
        '56c0f51cf78d87bbd9366140a8e08116e2c166faaafb189bf6476ee58f8536e0',
    'star --expr1 q0':
        'd2a623451e08baf8bb71a2ceb114ab20c1677e7d8fccafef1d7034be0f8d40eb',
    'star --expr1 -h --expr2 p0':
        '064d0df07e0e95261d3d4eb375cad01067e286a9acbb94f8e45bc49711e08519',
    'star --expr1 q0 --expr2 p0 --metric ++++':
        '25744fa6ec55d5574dad1d0908463a4a6361e46d939210f47df417fd97dbd768',
    'algebra-check --degree 1 --format=csv':
        '3b6ac410d3712d7bc3f5381183897be709fb7bc2cbd58ed604c0eb1fd0818f14',
    'landau-eigen --n x':
        'acab61cb0a2fa29e0c09648479d017637fe332f7b89091bd20f117df5250b451',
    'landau-spectrum --metric=+---':
        '022f7e4e94bbaac42b4b24601d9e33a57f72d60eb6739a6ea2745dc6119de7b7',
    'wigner --out w --format json':
        '081d405494d0b91ac8291870c43647588b7230212d7432b0f542962ae36e9690',
    "star --expr1 'q0 +' --expr2 p0":
        '275f729023323a8665456dd42a1ee85c44a47d6ca126f48c7fa00bb0ebb258f8',
    'star --expr1 q9 --expr2 p0':
        'f54428c44c49d599d0ea1512d5ffb0eb29f481f1c6543de5bf808940133dce6d',
    'star --expr1 foo --expr2 p0':
        '21903e6b8edb8327cf405126fb93ffa27ae06859351aae3d0c9912a0601d4ff2',
    "star --expr1 'q0^100' --expr2 p0":
        '6dfc53dc68c01f43d43bcc503b97f720dee3db47b89117de4f27e255b3448835',
    'star --expr1 q0/0 --expr2 p0':
        'd7fce76f9704480a64aac524ba9fd69c625771bf647599088e66b4173a56f993',
    "star --expr1 'q0^²' --expr2 p0":
        'ff3bcaf95e5de3c880d3f1911759250cf1dc7d8a58f16d5390ae2a26d8707aa3',
    "star --expr1 '(((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((q0)))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))' --expr2 p0":
        '064506431cdba30e915ffd5cb90b2bf6059be20a1c98dfa3426979c8ab004dfb',
    "star --expr1 '(q0 + p0 + q1 + p1)^20' --expr2 p0":
        '20b03f8afb9f609766aa7ce3d50d71ebae1ca962762a07739a22ca472779229c',
    "star --expr1 '(q0 + p0)^40*(q1 + p1)^40' --expr2 p0":
        'f29320568b53bf77ddb352ad9db448f6d6343e3a709619a5e9c20c59dd595a49',
    "bracket --expr1 q0 --expr2 'p0 + @'":
        '53e2d11bcd2c4d58fc4eac15c71f3bfe03e483cf9414fdb937e2fe75060e4e9d',
    'algebra-check --degree 0':
        '8f094138124b9cf052fc9821ba1cfa76dd90526355c5490d4e129909b783fb98',
    'casimir-check --degree-w2 0':
        '8f094138124b9cf052fc9821ba1cfa76dd90526355c5490d4e129909b783fb98',
    'dirac-square --degree -1':
        '6b354b16138eea32bc26ea4dd9381bea0d5473e586f767ce5e0db6ca3e674b78',
    'clifford-check --gamma-file missing.json':
        'a6850aabccc9aba6b072637de8f15524fc390b1072b2fc707c645491d99a8f3e',
    'kg-check --grid q0:8:-9:9,q1:8:-9:9,q2:8:-1:1,q3:8:-1:1':
        '67c92a49f65666970b5747cbc643602cb36f5397502e1baaaadcd55f894e88cc',
    'kg-check --width 0':
        'dac1fc619f55b6ed151ecfe7482e4c449c7039b5696322638e7d0c29034fcc50',
    'kg-check --tol -1':
        '8f673f4e08cbf61447f74e1a2447e93e5d7798e2f901ef0abcb873589e7e23ef',
    'kg-check --mass inf':
        '3d29dd40856dc10654edf246c7a3e6acd530b1d7d428ce27438492455da27455',
    'kg-check --grid q0:8:1000:2000,q1:8:1000:2000':
        '6789dacea609949da80491dc581337d22bf67ec3f71284d5288652ad175e32bc',
    'landau-spectrum --n 1000':
        'a751162d60c6530fce06a987831507b81bbf5a2647b2ec080eaf6b5402ecb7b3',
    'landau-spectrum --eB nan':
        'aa76f93e0413d245c47481ad3fba8c5d721e12cb242c6a689e74500c5dc4de67',
    'landau-eigen --z-max 0':
        'b2943ab6f5d8cbb353813e0b094ffded4ced443a548184f6fdfa4feb7204fdd7',
    'landau-eigen --n 1000':
        '87b4017851e1974e36948662a0eac8cc806770c9ade635c4ec78511f466193cb',
    'landau-eigen --eB 1e-300':
        'aa70f5065f8234675a8a3f39d6da623c040aee5e8387de662e88a261b9385cef',
    'landau-eigen --z-max 1e4':
        '954ae250c510b04b78859d981264d366abf683264b182019376467d5ed6b52e8',
    'landau-eigen --tol nan':
        '528cd8ba1734e9c60407ab3957fdd57bd07f49b8e4460c08ca4ee2f47745c6d6',
    'landau-reduce-check --box inf':
        '96a8c3ccc9eb1c421c6ddf8a4911196e0c1419d01c26af6844bbb17b9912bc00',
    'landau-reduce-check --points 8':
        '246ac769e5734dec0ab6400bb6143918e54b5bb3434a2d03ae8f3c3246271fcf',
    'landau-reduce-check --imag-tol nan':
        '0827fe300e2b290a1c3a31ff20470f49a76c92c64b2cc38e7377582d7681ec2b',
    'wigner --grid x:6:-3:3,y:6:-3:3,px:6:-3:3,py:6:-3:3':
        '0921fe2cf8349291afb9fa5c0c0bc38418c1dfffbccc766a01e02b44a8e7d806',
    'wigner --kind landau --grid q:16:-5:5,p:16:-5:5':
        'b63670ddf4cc4796b8d69c00f6ec06ab988191db779e18a4be11287b8d8ebb31',
    'wigner --kind landau --box inf':
        '96a8c3ccc9eb1c421c6ddf8a4911196e0c1419d01c26af6844bbb17b9912bc00',
    'wigner --grid q:8:30:40,p:8:30:40':
        '62d3f630e8fa682d0e4ed573b790591bb6b28def11c56c8542bdcc96a2b50e11',
    'specfun-eval --function laguerre --n 1000 --x 0:1:2':
        '87b4017851e1974e36948662a0eac8cc806770c9ade635c4ec78511f466193cb',
    'specfun-eval --function laguerre --x 0:1:0':
        '3631a9d2bcc5aa293f50ed36286114e4143a781c0c2b001af9bcf106a4e2d27b',
    'specfun-eval --function laguerre --x 1:2':
        '7cdee067561c6f8fd26675fd136c6c8fb56db32e270596186aaa6c7743ad23f6',
    'specfun-eval --function kummer-u --a nan --x 1:2:3':
        '61c8fe44427b891c6b1976584757b57c427c2b2039b7a32bd66bb323763bc4e5',
    'specfun-eval --function kummer-m --a 1e6 --b 1 --x 0:5:3':
        '3f91ab958e9605431699d35bf2621d8c959d9a698619314b5ef00d56055accc6',
}


def test_corpus_runs_match_their_pins():
    assert len(PINS) == len(RUNS)
    assert {label(argv): run_digest(argv) for argv in RUNS} == PINS


def test_corpus_script_prints_one_pinned_digest_per_run():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "tests" / "cli_corpus.py"), str(root / "src")],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == [f"{digest} {line}" for line, digest in PINS.items()]
