"""Format v1 pinned by digest: every kind, s and variant on a few small
texts must serialize to exactly these bytes. A round-trip test alone would
miss a change that alters the bytes the same way on write and on read."""

import hashlib
import struct
import zlib

import pytest

from srindex import envelope, toolkit

TEXTS = {
    "periodic": b"abcab" * 24 + b"abd",
    "unary": b"a" * 60,
    "many": bytes(range(1, 256)) + bytes(range(200, 0, -3)) + b"xyzxyzxy",
}

# SHA-256 of serialize() with block=4, keyed by (text, kind, s, variant)
GOLDEN = {
    ("periodic", "rlbwt", None, 0):
        "147cadb5402ae0782b337e37573ea3471a3081f0d1fbe1c82ab6906cce6be9d9",
    ("periodic", "r-index", None, 0):
        "33fd36358001c8128c33a1e725ee07b0259a4f19342dbf50042b6317a46e2831",
    ("periodic", "r-csa", None, 0):
        "a0e91ece7b66f1cfdc83661df59e231782bc9f63a2b789e579823f2bce4458c4",
    ("periodic", "sr-index", 1, 0):
        "cd658422b294ae74ed97ab753374aa89944d89b65e9434b0a73dbc5bc2c62fbc",
    ("periodic", "sr-index", 1, 1):
        "4575db30f1232075dfacffc1ab45dfe81f0d15d3c727212fd4c2a7d4592e2e66",
    ("periodic", "sr-index", 1, 2):
        "ecc4054be17adae93b436e6f3ec2f89eb43c5dc156915ca4a9970b494d15183f",
    ("periodic", "sr-index", 4, 0):
        "648e08a1db52a32499013681cecf21dc28c6dee18181cdab3f251981b02e58f2",
    ("periodic", "sr-index", 4, 1):
        "88f8d1466cd00908e5e327bc1ecf24b2e73b428a5725917b7eda5ec600e5bb44",
    ("periodic", "sr-index", 4, 2):
        "b9ee576c87f2495c512e1eb3649cd0a8ab6605ef1074af53e56c236420af05a2",
    ("periodic", "sr-index", 8, 0):
        "1fc870aa54b1ab2b031d04e2200447cf993e41496ea374266df4ac95977c3f48",
    ("periodic", "sr-index", 8, 1):
        "4e44cde253656dffbe1445c4a2b202146a0333df5f73242202cb0484dc7c5383",
    ("periodic", "sr-index", 8, 2):
        "5e1e9a26c765a7d397b604886768f44bfc44ac8fc187c4d629ea0f5220728c80",
    ("periodic", "sr-csa", 1, 0):
        "f0bd365da1a0a71bdf06eff352ea76be808565e1eb386d8fd1f8724c145b2b3d",
    ("periodic", "sr-csa", 1, 1):
        "6dadf9926366ec9bbb01723d2cde5249fcbbddb2560f032d7c73c18eb5fb6f9f",
    ("periodic", "sr-csa", 1, 2):
        "0a77317a7954c02938c786b4a6a48c159a5151a4816f56270c0f6d48b51ade8a",
    ("periodic", "sr-csa", 4, 0):
        "2fa3c0ad0897fdc9f278e8cc7ed4ffdd1c2098c4486b3a8d427bbfb90ac9f910",
    ("periodic", "sr-csa", 4, 1):
        "1f92af58161dd0ddbf2c16f55973a9076c4f110c91cf1978f601d34958bbe946",
    ("periodic", "sr-csa", 4, 2):
        "e534c0816acc660dd2a80174bc70ec0f23255eb38da0fb53d2794bca8f0771e2",
    ("periodic", "sr-csa", 8, 0):
        "e484af727eb66f3e0b2375e83ba08e04cadaac54414348cb60668385767527bd",
    ("periodic", "sr-csa", 8, 1):
        "3e33f59f7f97eb9a452e69ddd7b378d80f6bbf8f1deae418b5b99cd33f77c614",
    ("periodic", "sr-csa", 8, 2):
        "03f2a9d1504f43bd26e8baf393d0960c077cb187dfbf210e54e4f406837d9dd4",
    ("unary", "rlbwt", None, 0):
        "763450e67d57972341d4413d53b2b0fb35ca616e808e01198a7d8098174836b1",
    ("unary", "r-index", None, 0):
        "8e9eb66e08b32fb966314fb5765de79b2abc7f489492eb271347b701e80e4e98",
    ("unary", "r-csa", None, 0):
        "a6554be00354042600ba0d247ce5055d48bdad7ed844743003835cbb19f6582f",
    ("unary", "sr-index", 1, 0):
        "8d02fe30ecaefaa361f0a58c00b0204bcdf39becbde8256261973b48e01a8d35",
    ("unary", "sr-index", 1, 1):
        "b9b3db61e7bde168939c4c2aca08896b414922f07eff133c86d1f5cf4d81f5a5",
    ("unary", "sr-index", 1, 2):
        "cb0437abee442468e728d12f4bdaf139e0dc2ba05716b946373a70e30f49853d",
    ("unary", "sr-index", 4, 0):
        "da9f5b52aff705542fb09d612943a5e637b1aa0c31dab8869cdc53dc07703100",
    ("unary", "sr-index", 4, 1):
        "ddcdd6f3985d737293c65d27a878c836fdb5dd859a3529e9889a721796d43824",
    ("unary", "sr-index", 4, 2):
        "8ac63cfd21b895a64ced59f49fc3f1ed8fdace63efb130b1cd9295748c7c331c",
    ("unary", "sr-index", 8, 0):
        "115ffaf7cfbde3bc6ce3bf13e54dff9e95548c508d44e90f56ef234d3c75ea14",
    ("unary", "sr-index", 8, 1):
        "a7af615343184911eec88c42eeba53dc5e97375ca2cc5dbdfe50d3ab32e64062",
    ("unary", "sr-index", 8, 2):
        "51cea4395e0df66d72b325d189e589256276a9b9f8b7c350c9468bcf930b0f28",
    ("unary", "sr-csa", 1, 0):
        "cf4d7fce7a01b683f03607181db5cc4b20afa3ba73ef88240e6aeaeb5ae02960",
    ("unary", "sr-csa", 1, 1):
        "02b8940ceb8c857e4d4a096f6a6caa8d4366728c414aedd48902a7169e08bb4d",
    ("unary", "sr-csa", 1, 2):
        "dd5e00863575eb6f6ff7008c9b6f684e88b42b2cb38756d1af151c4e1cdecf42",
    ("unary", "sr-csa", 4, 0):
        "d50f697207dcdfe396434dedd2b328f0a31482fee3de35da955740f3e1a1d2b2",
    ("unary", "sr-csa", 4, 1):
        "bcbff1c26891f8b424cde0ab3d901227f9d0abb9ea35e677ecf37753b5d276fb",
    ("unary", "sr-csa", 4, 2):
        "533585637cbc5326616448bd40ae890c9113c960247fb64c6000d102fa1f9272",
    ("unary", "sr-csa", 8, 0):
        "0e61f29dd233d1588666ed1b8780c48ca5ee2c5c7acd2c282eaed366d1a542f7",
    ("unary", "sr-csa", 8, 1):
        "3a077079e22e044efe4826c5d735b2f6e3283a46a3d98526d1e955018b47708e",
    ("unary", "sr-csa", 8, 2):
        "475d4ba3a08ec6afe06c620ef4da877342f16ad3650c8ad2907d4ed5cf41f6ce",
    ("many", "rlbwt", None, 0):
        "9471b70dfc0f22e5cdd530f0e6501fef2d201dc0a35105ee251e6f2cdca01664",
    ("many", "r-index", None, 0):
        "bac099f0c29b69ba9635155ce07531e096f8233358892aeafea225bac1f4de0f",
    ("many", "r-csa", None, 0):
        "c2e6cf677acee5be211e521c6180f191e9960b64b0470f9ba5511bc2cc3e095e",
    ("many", "sr-index", 1, 0):
        "592f06b3745ebc7b3e0358c2ea737e065085fb6804e3bbba9af40c0a1512bcda",
    ("many", "sr-index", 1, 1):
        "ecb89f3df617b7646549e078191ecffcfd3c4261a896bd78f7741ac800e705b5",
    ("many", "sr-index", 1, 2):
        "68606de3752c774683ad316306965c8a4701cd0300a2fbc32d57b46a51e387ad",
    ("many", "sr-index", 4, 0):
        "442e86c9d5b63243a438ccb6a535a87972e1b12aaa5c0bfb40add99786eb0c3f",
    ("many", "sr-index", 4, 1):
        "9f938dc0a4ab5c9932b087cb5b5f979035d498a9d6ea4de1ef5ad4b8924dfc59",
    ("many", "sr-index", 4, 2):
        "e163d5191a5d6ce5272b9150301d28c3c026082e1fe5323364b819f3220f8e81",
    ("many", "sr-index", 8, 0):
        "be0014f93f227f01448e2871dedad6284f5945462b996914633a04e754688a69",
    ("many", "sr-index", 8, 1):
        "1e451a8a34477ad605d3680af66f1c108509953df3401546299f87605fd128f2",
    ("many", "sr-index", 8, 2):
        "a90f0cd014057e9976fb4ba69c904e0675b4f9e1fa3d3700b263ccfc048fa557",
    ("many", "sr-csa", 1, 0):
        "594bb408a152347288d2197a8fe5b892933f3f85829191d6eb00923eebe75132",
    ("many", "sr-csa", 1, 1):
        "caac4fe4598ab6535474a1bfb89ac8266eb015f1a8c21e1523d36dae1ef97972",
    ("many", "sr-csa", 1, 2):
        "931ccd052b1af4c4cdfa7a1b5816e395e4426b4f0eaad4d31e5df580f3a38b72",
    ("many", "sr-csa", 4, 0):
        "10c94b90b1ce32ee5612ac263f9693531610ce8eb5ad8c15f077df362cfa7ee1",
    ("many", "sr-csa", 4, 1):
        "3efff725d9130aa3730a66a16a116fbbe1ec8bcf0d36dce20cbe5fc83dac83e7",
    ("many", "sr-csa", 4, 2):
        "c7da3d13708fd304a25c698c0528fa4719c6bb845592eba5d5a76094dab54434",
    ("many", "sr-csa", 8, 0):
        "47754cfbf4be31c19b28253a41a735b7d96abfcc47b817423adf800a3a67645b",
    ("many", "sr-csa", 8, 1):
        "b156d2a535e2c446956402ed5fb76874d6670d8c7e3ebe954b102afcd732439b",
    ("many", "sr-csa", 8, 2):
        "429a8cf512a3f8b9152a695813b0455ddf160fcbcfa623907fdc1fa12bd4ad14",
}


@pytest.mark.parametrize("text,kind,s,variant", sorted(
    GOLDEN, key=lambda k: (k[0], k[1], k[2] or 0, k[3])))
def test_envelope_digest(text, kind, s, variant):
    blob = toolkit.build_index(TEXTS[text], kind, s=s, variant=variant,
                               block=4).serialize()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[text, kind, s, variant]


def _rename_section(blob, old, new):
    """Rename one section in the table and recompute the checksum."""
    data = bytearray(blob[:-4])
    (count,) = struct.unpack_from("<I", data, 52)
    for i in range(count):
        at = 56 + 32 * i
        if data[at:at + 16].rstrip(b"\x00") == old:
            data[at:at + 16] = new.ljust(16, b"\x00")
            break
    else:
        raise AssertionError(f"no section {old!r}")
    return bytes(data) + struct.pack("<I", zlib.crc32(data))


def test_missing_section_is_format_error():
    blob = toolkit.build_index(TEXTS["periodic"], "sr-index", s=4,
                               variant=2).serialize()
    bad = _rename_section(blob, b"valid_area", b"valid_arex")
    with pytest.raises(envelope.FormatError, match="valid_area"):
        toolkit.load_index(bad)


def test_extra_section_is_format_error():
    # a variant-1 header whose payload still carries variant 2's area
    blob = toolkit.build_index(TEXTS["periodic"], "sr-csa", s=4, variant=2,
                               block=4).serialize()
    data = bytearray(blob[:-4])
    data[9] = 1                                     # header variant byte
    bad = bytes(data) + struct.pack("<I", zlib.crc32(data))
    with pytest.raises(envelope.FormatError, match="valid_area"):
        toolkit.load_index(bad)
