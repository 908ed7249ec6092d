"""The CLI's golden manifest: seeded ``spinjoint.cli.main`` output pinned by hash.

Each entry maps a name to (argv, exit code, sha256 of stdout, whether stderr
is empty).  stderr itself is not hashed.
Digests are recorded before the code they guard changes, so a documented
output change shows up as an explicit edit of its entry.
"""

import contextlib
import hashlib
import io

from spinjoint.cli import main

CLI_MANIFEST = {
    "validate-json": (
        ["validate", "--format", "json"],
        0, "425fdbef36bf70ad17e9480ff5e3f10ba3c627f5aaa90fbfc93d64aa82d5958b", True),
    "validate-csv": (
        ["validate", "--format", "csv"],
        0, "d261f8d03b0b0fbf737f152b3f29f974c6e80e6c0ae751e50fef7871b6ebf79b", True),
    "validate-inadmissible": (
        ["validate", "--alpha", "1", "--alpha-prime", "1"],
        1, "7d8588c43dbe04e8e8cd812f39ff276269e9ac6e51d8b889f70aa05f2260cf12", True),
    # the one csv record with an empty cell (completeness_defect None), and a'
    # given as a vector rather than an angle
    "validate-inadmissible-csv": (
        ["validate", "--alpha", "1", "--alpha-prime", "1", "--format", "csv"],
        1, "fc988d3002b5f10227baf3fa8b39645a222bea4639a803027541c1373c56889b", True),
    "validate-a-prime-csv": (
        ["validate", "--a-prime", "1,0,0", "--format", "csv"],
        0, "d261f8d03b0b0fbf737f152b3f29f974c6e80e6c0ae751e50fef7871b6ebf79b", True),
    "scan-theta-csv": (
        ["scan-theta", "--points", "7", "--format", "csv"],
        0, "56568489830439ebbf1d4f261b1bddcf81bdda95b8d1afe93472e5162ac87dec", True),
    "scan-theta-json": (
        ["scan-theta", "--points", "7", "--format", "json"],
        0, "a48beef8cd79bc8aaee03170555c9f17fadebc3c137039b9dfba4c5458d1efc6", True),
    # the theta grid, recorded while scan-theta and cloning still went point by
    # point: the default 181 points, the two end points alone, and 1000 points
    "scan-theta-default-csv": (
        ["scan-theta"],
        0, "607357e5325f2f3cc8efb35de1a8d5e69b365afd8c63e9c8c2b4f6c5ec7b2e87", True),
    "scan-theta-2-json": (
        ["scan-theta", "--points", "2", "--format", "json"],
        0, "9c62b543faef31579fc9baeda4087421193eeb44549c62f425ab7899318d69b7", True),
    "scan-theta-1000-csv": (
        ["scan-theta", "--points", "1000"],
        0, "5c36bb449c35569a8a425cee4f171aae5ee0cdf24bc6ec64e6d0271e1ab06d4e", True),
    "cloning-30-csv": (
        ["cloning", "--theta-deg", "30", "--eta", "0.5", "--format", "csv"],
        0, "fb3f5e6234bc3532b8bb8a4e66b65fe1ee2989b483b25b6df50dd42588df62ef", True),
    "cloning-eta-out-of-range": (
        ["cloning", "--eta", "0.9"],
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", False),
    "chsh-90": (
        ["chsh", "--theta-deg", "90"],
        0, "dad8ca8c4857a9b4b4e24565beda87a5d870278b536c444fe75675aa3f4bd5c8", True),
    "chsh-180": (
        ["chsh", "--theta-deg", "180"],
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", False),
    # a symmetric spec 5e-11 past 1/sqrt(2) that joint._decide admits; digests
    # recorded while chsh and uncertainty still exited 1 here on their own
    # tolerance checks (CHSH 2.0000000001414215, product-form slack -5.66e-10)
    "chsh-boundary-90": (
        ["chsh", "--theta-deg", "90", "--alpha", "0.7071067812365475",
         "--alpha-prime", "0.7071067812365475"],
        0, "1af16512ba43b88bb8a6f22c42215b9f3286f422ae06a583e4852af814d37899", True),
    "uncertainty-boundary-90-csv": (
        ["uncertainty", "--theta-deg", "90", "--alpha", "0.7071067812365475",
         "--alpha-prime", "0.7071067812365475", "--samples", "3", "--seed", "0"],
        0, "be020873c4fdbc7edc2b48d219f5046ebdd35705974b9e991d221a4a51a85708", True),
    "cloning": (
        ["cloning"],
        0, "f15af4421b29c75551db50a92b67e07950b684f922bd9cfa73c3ccf0fb5c0322", True),
    "uncertainty-json": (
        ["uncertainty", "--format", "json"],
        0, "eb907be80c7622e7aa05568bd87a63e632c8627b05d03ea27458502f296cc129", True),
    # alpha^2 alpha'^2 = 1e-320 is subnormal: the joint relations' lhs and
    # slack are inf, which csv spells inf and json Infinity (not float.__repr__)
    "uncertainty-nonfinite-csv": (
        ["uncertainty", "--alpha", "1e-80", "--alpha-prime", "1e-80", "--samples", "2",
         "--seed", "0"],
        0, "c408cc930068ed779d2729a75fdaa5aae9d4ca7d9d97b8c9ec2619d937c54bd5", True),
    "uncertainty-nonfinite-json": (
        ["uncertainty", "--alpha", "1e-80", "--alpha-prime", "1e-80", "--samples", "2",
         "--seed", "0", "--format", "json"],
        0, "46bf07987b43113eaaf01883e087a52799e807ae930d5c4b036ba1f574264c92", True),
    # the "--" Born entry rounds to -3.06e-17 and is set to 0 without a warning
    "sample-clamped": (
        ["sample", "--theta-deg", "180", "--bloch", "1,0,0", "--n", "10", "--seed", "1"],
        0, "24a76d24cbf10dfcd3afc69388055892a1639b10a8a1ca4e592577aa42998279", True),
    "usage-error": (
        ["bb84", "--n", "0", "--seed", "1"],
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", False),
    # --a and --bloch at their defaults; n = 65537 is not a multiple of the
    # 2^16-word block
    "sample-defaults-csv": (
        ["sample", "--n", "65537", "--seed", "5"],
        0, "5c431d1d22ccc27fd9e15856ca8b6c3b4058c8e477cd5d2fd2f38384c923eb2e", True),
    "sample-defaults-json": (
        ["sample", "--n", "65537", "--seed", "5", "--format", "json"],
        0, "39f690724dcc47de9e6eb4108f431d44e9e8c488b3e24518789290b26b841cbd", True),
    "sample-theta-0": (
        ["sample", "--theta-deg", "0", "--bloch=0.3,-0.2,0.4", "--n", "4099", "--seed", "2"],
        0, "eefae36fb4b6a9e792f15bc2acf04b399ff363dd21460249983cc86a400d4bb6", True),
    "sample-on-sphere": (
        ["sample", "--theta-deg", "120", "--alpha", "0.5", "--alpha-prime", "0.4",
         "--bloch=0,0.6,0.8", "--n", "4099", "--seed", "3"],
        0, "7585288a24db39797fa05d3b2819c4150b297232f7133875ecf396b4fb66fda5", True),
    "signal-90-csv": (
        ["signal", "--n", "65537", "--seed", "5", "--format", "csv"],
        0, "37159b703eae9b953af83936236119885d5b828c320c86ff60c6ee8403c6ec22", True),
    "signal-90-json": (
        ["signal", "--n", "65537", "--seed", "5", "--format", "json"],
        0, "a9072e16302102f277be42d0d9383bccdcf87281435a5324ca42e8108bbdf002", True),
    "bb84-30-csv": (
        ["bb84", "--theta-deg", "30", "--n", "4099", "--seed", "2", "--format", "csv"],
        0, "14dede045e60d6b689f7210a3d716609d5f8a8f0ff2659761c98654ce7b91e55", True),
    "bb84-30-json": (
        ["bb84", "--theta-deg", "30", "--n", "4099", "--seed", "2", "--format", "json"],
        0, "2de70183b1d5ddc9c636cc742db47e189525f57858b660d9b178b77ea0104c13", True),
    "chsh-n-csv": (
        ["chsh", "--alpha", "0.6", "--alpha-prime", "0.7", "--n", "65537", "--seed", "5",
         "--format", "csv"],
        0, "bb87155f50e00141bdaecfc8aeb21e32e2abfd0ca11cc3c41162079abdf86d47", True),
    "chsh-n-json": (
        ["chsh", "--alpha", "0.6", "--alpha-prime", "0.7", "--n", "65537", "--seed", "5",
         "--format", "json"],
        0, "b9faa9d9ee18bde02f687966a36795e03ff37d0f06597222f3c029a6ae8c629a", True),
    # seeded Monte Carlo stdout, recorded while the block walk still handed over
    # doubles; --n is not a multiple of the 2^16-word block, and bb84's 4n trials
    # are not either
    "mc-sample-csv": (
        ["sample", "--theta-deg", "70", "--alpha", "0.6", "--alpha-prime", "0.7",
         "--bloch=0.2,0.1,-0.3", "--n", "70001", "--seed", "5", "--format", "csv"],
        0, "368bc14d94b980e3be7f4f0b9d8727b3cb8541aa8eec50d0d52ded57e00013c4", True),
    "mc-sample-json": (
        ["sample", "--theta-deg", "70", "--alpha", "0.6", "--alpha-prime", "0.7",
         "--bloch=0.2,0.1,-0.3", "--n", "70001", "--seed", "5", "--format", "json"],
        0, "4acdbef12cc685a66b44f681e9d415231b4664ce13c4ca0e70d20721b8e89bc6", True),
    # the mixed state: outcome boundaries at 1/4, 1/2, 3/4
    "mc-sample-mixed-csv": (
        ["sample", "--n", "70001", "--seed", "5", "--format", "csv"],
        0, "a9dd1e90ce9057487793db2b8bc934c650b65f99abcd83be4b376e11c8acfe5b", True),
    "mc-sample-mixed-json": (
        ["sample", "--n", "70001", "--seed", "5", "--format", "json"],
        0, "241316c4de3799ed982b9404a7739dc9ca485e98fc92b5de2b21827faca06db3", True),
    "mc-signal-csv": (
        ["signal", "--theta-deg", "70", "--n", "70001", "--seed", "5", "--format", "csv"],
        0, "7245e75e1c1ed81777797265e342f198ef6ecf1271ea0768de15c439ff238f65", True),
    "mc-signal-json": (
        ["signal", "--theta-deg", "70", "--n", "70001", "--seed", "5", "--format", "json"],
        0, "e182199977d8fe6c3ae35d21189419aeff381dfff6f4bc8a63b6259af8ddf771", True),
    "mc-chsh-csv": (
        ["chsh", "--theta-deg", "70", "--n", "70001", "--seed", "5", "--format", "csv"],
        0, "269158b3f7c26975a9c038c895af48f90ee99d3f9efb455253f3810fa7f10657", True),
    "mc-chsh-json": (
        ["chsh", "--theta-deg", "70", "--n", "70001", "--seed", "5", "--format", "json"],
        0, "0f4e4b21f19ce71b2324b39babcd10a5e7fb6ee6bd097fd1432e616623c9e3fd", True),
    "mc-bb84-csv": (
        ["bb84", "--n", "17501", "--seed", "5", "--format", "csv"],
        0, "edbf39e9e2f67f7ac9512068e3ec0d6ddeeead5e76f09ed6783773184095c1da", True),
    "mc-bb84-json": (
        ["bb84", "--n", "17501", "--seed", "5", "--format", "json"],
        0, "88da9278811eddc0600fece6c5861c52505e59799e36caccdd89b39be2921870", True),
    # the uncertainty csv, recorded before the relations became one batch kernel
    "uncertainty-csv-default-0-1": (
        ["uncertainty", "--seed", "0", "--samples", "1"],
        0, "05122a1649a59bf40fe88fe8729d1b22a3017b31c37fb55b4ebc8f95481a9989", True),
    "uncertainty-csv-default-0-30": (
        ["uncertainty", "--seed", "0", "--samples", "30"],
        0, "29d000187453e9a40f39458b3207100aed89d1c4ef1f222023b89e3fab494932", True),
    "uncertainty-csv-default-0-500": (
        ["uncertainty", "--seed", "0", "--samples", "500"],
        0, "e97f1fa63084cca80c92227cc57e176edd5522885f8064337d529e54e84b8a64", True),
    "uncertainty-csv-default-7-1": (
        ["uncertainty", "--seed", "7", "--samples", "1"],
        0, "d2968b23f17cf542ecf4bb55eb1c16a9738fcf6bef9eb9d6c33bc6e00f4dae54", True),
    "uncertainty-csv-default-7-30": (
        ["uncertainty", "--seed", "7", "--samples", "30"],
        0, "da58947e8cbeee2e449038c4a123c0bca8d7f06dd48f7a3a6ab24adce2b04941", True),
    "uncertainty-csv-default-7-500": (
        ["uncertainty", "--seed", "7", "--samples", "500"],
        0, "bc48a78436c5cf28d3e0b87316236c6b2e9b41ff935b47dbd9449af789dd545e", True),
    "uncertainty-csv-theta-0-1": (
        ["uncertainty", "--theta-deg", "37", "--alpha", "0.7", "--alpha-prime", "0.6",
         "--seed", "0", "--samples", "1"],
        0, "b8bce3083755104acf0e66ab672c4a204f539cfcc1f4c6b772c3b5e623669ea3", True),
    "uncertainty-csv-theta-0-30": (
        ["uncertainty", "--theta-deg", "37", "--alpha", "0.7", "--alpha-prime", "0.6",
         "--seed", "0", "--samples", "30"],
        0, "47016641781fa32551e6b8e57007167b89e677263a1e28d1c64c0a66d5250b89", True),
    "uncertainty-csv-theta-0-500": (
        ["uncertainty", "--theta-deg", "37", "--alpha", "0.7", "--alpha-prime", "0.6",
         "--seed", "0", "--samples", "500"],
        0, "c5acd347290c9b9d66200bff8bc415856c6d3c321858c1301999f29bb1184437", True),
    "uncertainty-csv-theta-7-1": (
        ["uncertainty", "--theta-deg", "37", "--alpha", "0.7", "--alpha-prime", "0.6",
         "--seed", "7", "--samples", "1"],
        0, "4ec7c74287934cb33ce1afae4428517fa61ffb88a2f965e67cc5f6c6ab34e9dc", True),
    "uncertainty-csv-theta-7-30": (
        ["uncertainty", "--theta-deg", "37", "--alpha", "0.7", "--alpha-prime", "0.6",
         "--seed", "7", "--samples", "30"],
        0, "2d1e3049b0c252448177cc1738c82fcfb39bb7c65fada50dc3684d141ddc9d22", True),
    "uncertainty-csv-theta-7-500": (
        ["uncertainty", "--theta-deg", "37", "--alpha", "0.7", "--alpha-prime", "0.6",
         "--seed", "7", "--samples", "500"],
        0, "ac73446517283d21f2288126df23036fa1bf7ae3931193f8eeddb7ef605ff019", True),
    "uncertainty-csv-vectors-0-1": (
        ["uncertainty", "--a", "0.3,0.2,1", "--a-prime", "1,-0.4,0.1", "--seed", "0",
         "--samples", "1"],
        0, "d2e06ed2e65b50515c94475260f4e7aed9cc00d96b0aedecf1a0c4a8f348490f", True),
    "uncertainty-csv-vectors-0-30": (
        ["uncertainty", "--a", "0.3,0.2,1", "--a-prime", "1,-0.4,0.1", "--seed", "0",
         "--samples", "30"],
        0, "cfc8a03d4e3b99fbadaadb6f93549f6a229349f943879a2bcb0a9957616290cf", True),
    "uncertainty-csv-vectors-0-500": (
        ["uncertainty", "--a", "0.3,0.2,1", "--a-prime", "1,-0.4,0.1", "--seed", "0",
         "--samples", "500"],
        0, "73cd5d3a22fabd163d406f6ceb51cac7c0e5221775330cfcfbbd68aefd05bd38", True),
    # moves if the squares are taken as v * v or np.square; np.float_power
    # calls libm pow per element, as Python's ** does, and keeps it
    "uncertainty-csv-vectors-7-1": (
        ["uncertainty", "--a", "0.3,0.2,1", "--a-prime", "1,-0.4,0.1", "--seed", "7",
         "--samples", "1"],
        0, "52b756309b2cdfe924a0e4c51efb14e1458fce899fa005276b0b2ea8c71889ea", True),
    "uncertainty-csv-vectors-7-30": (
        ["uncertainty", "--a", "0.3,0.2,1", "--a-prime", "1,-0.4,0.1", "--seed", "7",
         "--samples", "30"],
        0, "818d0f068302ad3dad46b2e62d344883093aa31d13362ec588eb022cb71a2c34", True),
    "uncertainty-csv-vectors-7-500": (
        ["uncertainty", "--a", "0.3,0.2,1", "--a-prime", "1,-0.4,0.1", "--seed", "7",
         "--samples", "500"],
        0, "b7e0ad87e49125c105175aead761f9a22599eb8b55733ab48678ca3ca8b8af66", True),
}

# Many-row output, recorded while the uncertainty powers were still Python
# loops: 25001 samples are 75003 stream words and 25001 rows, more than one
# 2^16-word block and one 2^10-row block and a multiple of neither.  Kept out
# of CLI_MANIFEST, whose entries test_in_process_calls_are_independent runs
# twice more, so each of these runs once.
MANY_ROW_MANIFEST = {
    "uncertainty-25001-csv": (
        ["uncertainty", "--samples", "25001"],
        0, "58125adebd3adb9d0dc404a19091a6316ca58791b5e7bc8bb50c6f20f6f5693c", True),
    "uncertainty-25001-json": (
        ["uncertainty", "--samples", "25001", "--format", "json"],
        0, "2e70a64a910997ab93fc4f170b3c3a6a42731e7efb7ab147ee2a111cb2ead82f", True),
    "scan-theta-40001-csv": (
        ["scan-theta", "--points", "40001"],
        0, "e53aeb5e35b3179f0dc28c2213036c80cf7c257e39f5b0294e67277726ac898a", True),
}


def check_entry(name, manifest=CLI_MANIFEST):
    """Run one entry's argv in this process and compare it with the manifest."""
    argv, exit_code, digest, stderr_empty = manifest[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == exit_code, name
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, name
    assert (err.getvalue() == "") is stderr_empty, name
