"""Byte contract of ``analyze``: sha256 digests of every output file.

The digests pin report.csv, report.json, rejections.csv and the ten curve
CSVs for a small seeded synthetic market and for a hand-written tie-heavy
CSV, each analyzed with and without ``--renormalize``, plus the seeded
synth CSV itself.  The tie-heavy CSV and a seeded market of field sizes
2-12 are also pinned at the field-size cuts ``--min-field-size`` 2 and 3,
which change the races of bucket ``all`` and of every curve.  A refactor of the synth, ranking or report code must
reproduce them bit for bit; a change that moves a number on purpose
re-records them and says why.
"""

import hashlib

import pytest

from brokenstick.cli import EXIT_OK, main

OUTPUTS = (
    "report.csv",
    "report.json",
    "rejections.csv",
    *(
        f"eccdf_rank{label}_{kind}.csv"
        for label in ("1", "2", "3", "4", "longshot")
        for kind in ("empirical", "theory")
    ),
)

# Ties inside and across ranks, a tied winner, ids out of order, rows of one
# race split apart, a race below the field-size cut, and one race or row for
# every rejection reason (a blank race id included).
TIE_HEAVY_CSV = """\
race_id,horse_id,decimal_odds,won
t01,h5,5.0,0
t01,h2,5.0,0
t01,h4,5.0,0
t01,h1,5.0,0
t01,h3,5.0,1
t02,hB,4.0,0
t02,hA,4.0,0
t02,hD,5.0,1
t02,hC,5.0,0
t02,hE,10.0,0
t02,hF,20.0,0
t03,h08,8.0,1
t03,h07,8.0,0
t03,h06,8.0,0
t03,h05,8.0,0
t03,h04,8.0,0
t03,h03,8.0,0
t03,h02,8.0,0
t03,h01,8.0,0
t04,x1,3.0,0
t05,a,3.5,1
t04,x2,3.0,0
t05,b,7.0,0
t04,x3,6.0,0
t05,c,7.0,0
t04,x4,12.0,1
t05,d,7.0,0
t04,x5,12.0,0
t05,e,14.0,0
t05,f,14.0,0
t05,g,14.0,0
t06,h1,4.0,1
t06,h2,4.0,0
t06,h3,4.0,0
t06,h4,4.0,0
t07,h1,5.0,1
t07,h2,5.0,1
t07,h3,5.0,0
t07,h4,5.0,0
t07,h5,5.0,0
t08,h1,2.0,1
t08,h2,x,0
t08,h3,2.0,0
,h1,2.0,1
t09,h1,5.0,1
t09,h1,5.0,0
t09,h2,5.0,0
t09,h3,5.0,0
t09,h4,5.0,0
t10,p1,6.0,0
t10,p2,6.0,0
t10,p3,9.0,0
t10,p4,9.0,1
t10,p5,9.0,0
t10,p6,12.0,0
t10,p7,12.0,0
t10,p8,18.0,0
t10,p9,18.0,0
t11,h1,2.5,0
t11,h2,4.0,0
t11,h3,6.0,0
t11,h4,10.0,0
t11,h5,15.0,1
t12,h01,10.0,0
t12,h02,10.0,0
t12,h03,10.0,0
t12,h04,10.0,0
t12,h05,10.0,0
t12,h06,10.0,0
t12,h07,10.0,1
t12,h08,10.0,0
t12,h09,10.0,0
t12,h10,10.0,0
"""

SYNTH_CSV_DIGEST = "dbfeb6a752d65be2b71688aac9694d99cd6e4530a2833819b542891cf3f9bd3d"

DIGESTS = {
    ("synth",): {
        "report.csv":
            "b96bc2edcf06a7ba9c542c47023003d478c38e5870bbb3c42a50db9770409151",
        "report.json":
            "4ad63cec5348799a92f37a543c9a80028760d470a5939ba459c3e5339f247431",
        "rejections.csv":
            "cf1daffcb4a815b9e66be3275f8441e08038c8f755df9197277fe264b6451e1d",
        "eccdf_rank1_empirical.csv":
            "e02435bb5507af99cb84b5adb4b87dfbb4d2bd975f0805c0718d914514cbe8a5",
        "eccdf_rank1_theory.csv":
            "25b412dad9ab438c696c3ee0ff3f715efc5a3916f1692e7fc187c1c1bf1d8797",
        "eccdf_rank2_empirical.csv":
            "10f639528ce362b9cb9111bfdb63208eb17ddd3b0db5331ba6338d66f63dc739",
        "eccdf_rank2_theory.csv":
            "dec617338aed3315f20e696bb885981b6cf6dc39595ead0c8866ba2d08bc68c4",
        "eccdf_rank3_empirical.csv":
            "4f62b85830a299a092010b7148596c7f8d4f594b3d1c7a157c0ef3e55074c1f4",
        "eccdf_rank3_theory.csv":
            "fd8643711ca28c3c59f87144a61756c42351f31cfce620b4f5e149ca0e7b3cb2",
        "eccdf_rank4_empirical.csv":
            "771bc68d76d01e2b38c2b7647f7bbb304ba3d445b378b6f77db5dd34d75d2043",
        "eccdf_rank4_theory.csv":
            "5156186c3f69acbea8d0edeff5620d76b54cdbab680df53459d0ed4b1a52292b",
        "eccdf_ranklongshot_empirical.csv":
            "c8606002d9b4b35ca40eee0dc310695facf55c61dd6d667799d821b5bc6d9630",
        "eccdf_ranklongshot_theory.csv":
            "866a0aa9dcf19c674ec12a4a3bb59d735c4943c7862450f5d7acb67dc4c99f70",
    },
    ("synth", "--renormalize"): {
        "report.csv":
            "b96bc2edcf06a7ba9c542c47023003d478c38e5870bbb3c42a50db9770409151",
        "report.json":
            "88b14ac8934fe8a80badd36bf6672d89c566852ff53fe36ff4e45f5545c2b875",
        "rejections.csv":
            "cf1daffcb4a815b9e66be3275f8441e08038c8f755df9197277fe264b6451e1d",
        "eccdf_rank1_empirical.csv":
            "e02435bb5507af99cb84b5adb4b87dfbb4d2bd975f0805c0718d914514cbe8a5",
        "eccdf_rank1_theory.csv":
            "25b412dad9ab438c696c3ee0ff3f715efc5a3916f1692e7fc187c1c1bf1d8797",
        "eccdf_rank2_empirical.csv":
            "10f639528ce362b9cb9111bfdb63208eb17ddd3b0db5331ba6338d66f63dc739",
        "eccdf_rank2_theory.csv":
            "dec617338aed3315f20e696bb885981b6cf6dc39595ead0c8866ba2d08bc68c4",
        "eccdf_rank3_empirical.csv":
            "4f62b85830a299a092010b7148596c7f8d4f594b3d1c7a157c0ef3e55074c1f4",
        "eccdf_rank3_theory.csv":
            "fd8643711ca28c3c59f87144a61756c42351f31cfce620b4f5e149ca0e7b3cb2",
        "eccdf_rank4_empirical.csv":
            "771bc68d76d01e2b38c2b7647f7bbb304ba3d445b378b6f77db5dd34d75d2043",
        "eccdf_rank4_theory.csv":
            "5156186c3f69acbea8d0edeff5620d76b54cdbab680df53459d0ed4b1a52292b",
        "eccdf_ranklongshot_empirical.csv":
            "c8606002d9b4b35ca40eee0dc310695facf55c61dd6d667799d821b5bc6d9630",
        "eccdf_ranklongshot_theory.csv":
            "866a0aa9dcf19c674ec12a4a3bb59d735c4943c7862450f5d7acb67dc4c99f70",
    },
    ("ties",): {
        "report.csv":
            "8fe84da1bcd02656974baef39f0e3cb5c28ae1f12d6ccff5b375e52096ab6f89",
        "report.json":
            "7f90f6a9f60f573f45bd29980a4eaac998e424f1ec4289c587476a31d0afffa0",
        "rejections.csv":
            "fe41315844d01bc6ab52908c2b2913d418b4b0f8f0308c06046e5487290d0afc",
        "eccdf_rank1_empirical.csv":
            "a16c9d96304c7cef153a490e2af5901529865d984b3c8eab7b172418d6ac14fe",
        "eccdf_rank1_theory.csv":
            "76a05badff15726f2ec00b5b6e185bfc12a5dbb211b7f9a5f39d45bdb8ba524b",
        "eccdf_rank2_empirical.csv":
            "268feea5266195a4e92305d43e5044a174cb4441374be7c752a7a89d0f2c8114",
        "eccdf_rank2_theory.csv":
            "2eb2c1dfca24e54193dac629c05bf5ca6a5cd0a527d5a313f6ec179ddf23bf52",
        "eccdf_rank3_empirical.csv":
            "cdedca4bca74a1f658651c3c38bb0371c60f789e32aac0e90d195cdbb1542cc3",
        "eccdf_rank3_theory.csv":
            "d6aff7ccf1c1dd88563d463cd47dfff96c4c2db957b2f4449cb8b6114d16a992",
        "eccdf_rank4_empirical.csv":
            "f08521441566fbb21fca87e1a7b019edaad0857a26b112e5f92c2cd48b3acf03",
        "eccdf_rank4_theory.csv":
            "5c6462ef519d8324f576861eff1639212650ec0bcd21c5d3febd0b438d1813e6",
        "eccdf_ranklongshot_empirical.csv":
            "e0272414840e07baefe806f81b7da36d5abb959e72a7cfdb55c919149045bc4c",
        "eccdf_ranklongshot_theory.csv":
            "0af759815f2d89276e896fc9f2810cbaa216f0c6f39cca778de3ef2daef5cf88",
    },
    ("ties", "--renormalize"): {
        "report.csv":
            "6bb76365f822cd9546150857bd192e29ec35fcfbd40e7b5a1de906bfe1bc815b",
        "report.json":
            "d0c544f77837400320ec896216c9a91ea3ae53427c187e68736de2d58a7e3f87",
        "rejections.csv":
            "fe41315844d01bc6ab52908c2b2913d418b4b0f8f0308c06046e5487290d0afc",
        "eccdf_rank1_empirical.csv":
            "db54efcd8303d741d922a7fc247149c619864aacdfc79b3665a0b5519c9ff565",
        "eccdf_rank1_theory.csv":
            "c256f5d9dd63ea433bc93586266eb932145465c5ff4e3f4f1fc8fad90d50f184",
        "eccdf_rank2_empirical.csv":
            "468c0f89e4ea15a4a9d825ecdb7105b6c0238367aff23bf7af445eb8c19dfcd0",
        "eccdf_rank2_theory.csv":
            "8b3ddcdbf1402b8fe25601a1dd1bf0e13af4f07efab56fb2661ed248b5f147d5",
        "eccdf_rank3_empirical.csv":
            "59a0c825b94b97927673241fe0c56ea40ac5e8891c0b23940bd1a7f85ec2076d",
        "eccdf_rank3_theory.csv":
            "2b03640fe7640905be3d081c7a0644ff731e56e7f861bd7444fe2cb2fbfeb1fd",
        "eccdf_rank4_empirical.csv":
            "f6b9c6e69e66ba1d1169d9ea9456d69c140e6140d0f579ed42b8048707c80baf",
        "eccdf_rank4_theory.csv":
            "85ef55b17955dd17c0e0c69dffa63abcc3739618d7346915cdee205846d6bd06",
        "eccdf_ranklongshot_empirical.csv":
            "c1a81c3b1e825631728d8b1441346485d7fc6a53d63c8f17db12dbf0c6ce50d7",
        "eccdf_ranklongshot_theory.csv":
            "d957f48b43ce7ce58ea99342519ba68d4b171107ce880c50e87f9d338acaa6ae",
    },
    ("ties", "--min-field-size", "2"): {
        "report.csv":
            "89357eb3ffaa3cc343cf6e4631a018afc84640154edd5af7c955d4ad3a08aeaa",
        "report.json":
            "d2166583a86aae0b23966340268e52441f71c89fca02b56a685a54ed571c98c9",
        "rejections.csv":
            "fe41315844d01bc6ab52908c2b2913d418b4b0f8f0308c06046e5487290d0afc",
        "eccdf_rank1_empirical.csv":
            "8952d3cc9b6151aaea92a72170286c7de2cc33185ee21e6d7c1a7ae7756a1ba3",
        "eccdf_rank1_theory.csv":
            "614827645f93ee15b2817378834bc09f0167df960f56e81e17ca0f0ea9149f89",
        "eccdf_rank2_empirical.csv":
            "3d9eff748a9756b81d5bd05f7cb8be2ee1b8ca19b813507df15609e0d33ca267",
        "eccdf_rank2_theory.csv":
            "fb7647acea2cdc7883328c3dee5e0c0a054f13a849deaf1814dfab3957fcfbfb",
        "eccdf_rank3_empirical.csv":
            "f2d905293a8de7379b5215a619c33e7070edcb52e41c8b5fb7198b007b70f1c3",
        "eccdf_rank3_theory.csv":
            "c66bf52fa02ab837b24e781d79a76258ab33ff65822ec65d9dd84c29133fb8ca",
        "eccdf_rank4_empirical.csv":
            "b2f4d5269864d10d6516e4270f78ce7108b914ab5d697bcb1bb39e9003314ce5",
        "eccdf_rank4_theory.csv":
            "98464a80f2e79dc27803aa1de2893ad3f747da772fd38f476ce92eaec0e00cc2",
        "eccdf_ranklongshot_empirical.csv":
            "a4deb29ee90c74cd7b1c18b3dd8947e9b63076f30b97d3d8e1e6f5a651e93858",
        "eccdf_ranklongshot_theory.csv":
            "2c05a81158c4b20028f300e76cfcc5d742f129a0ddfeded57e02776ccce4f6f6",
    },
    ("ties", "--min-field-size", "3"): {
        "report.csv":
            "89357eb3ffaa3cc343cf6e4631a018afc84640154edd5af7c955d4ad3a08aeaa",
        "report.json":
            "834288db2fe96067c50a0fb46fda841f4fc079f30707a25589b919b92a5178e2",
        "rejections.csv":
            "fe41315844d01bc6ab52908c2b2913d418b4b0f8f0308c06046e5487290d0afc",
        "eccdf_rank1_empirical.csv":
            "8952d3cc9b6151aaea92a72170286c7de2cc33185ee21e6d7c1a7ae7756a1ba3",
        "eccdf_rank1_theory.csv":
            "614827645f93ee15b2817378834bc09f0167df960f56e81e17ca0f0ea9149f89",
        "eccdf_rank2_empirical.csv":
            "3d9eff748a9756b81d5bd05f7cb8be2ee1b8ca19b813507df15609e0d33ca267",
        "eccdf_rank2_theory.csv":
            "fb7647acea2cdc7883328c3dee5e0c0a054f13a849deaf1814dfab3957fcfbfb",
        "eccdf_rank3_empirical.csv":
            "f2d905293a8de7379b5215a619c33e7070edcb52e41c8b5fb7198b007b70f1c3",
        "eccdf_rank3_theory.csv":
            "c66bf52fa02ab837b24e781d79a76258ab33ff65822ec65d9dd84c29133fb8ca",
        "eccdf_rank4_empirical.csv":
            "b2f4d5269864d10d6516e4270f78ce7108b914ab5d697bcb1bb39e9003314ce5",
        "eccdf_rank4_theory.csv":
            "98464a80f2e79dc27803aa1de2893ad3f747da772fd38f476ce92eaec0e00cc2",
        "eccdf_ranklongshot_empirical.csv":
            "a4deb29ee90c74cd7b1c18b3dd8947e9b63076f30b97d3d8e1e6f5a651e93858",
        "eccdf_ranklongshot_theory.csv":
            "2c05a81158c4b20028f300e76cfcc5d742f129a0ddfeded57e02776ccce4f6f6",
    },
    ("small-fields", "--min-field-size", "2"): {
        "report.csv":
            "65d12120004ccf7f17d2499c56edb97526d7b43d4eaa1f719241143410abaddc",
        "report.json":
            "7fd1990a02ebe49c210274caa754505466e6c0aa03b9558e2815af5da67e848a",
        "rejections.csv":
            "cf1daffcb4a815b9e66be3275f8441e08038c8f755df9197277fe264b6451e1d",
        "eccdf_rank1_empirical.csv":
            "9c2a950c63e94c71185fa877e3dc4e0d2ca89111fc08d5f1feecab583970b344",
        "eccdf_rank1_theory.csv":
            "b5d73decd1c34645b641ce58f7d0bbeb20193ad67f891fab79f614eb96cbcc0d",
        "eccdf_rank2_empirical.csv":
            "ae8c37e5d6b6821cabd1b0d2a1f910e645d72c4113df851d82906dda7f6df854",
        "eccdf_rank2_theory.csv":
            "43448009cd3dc9264e5f89540442976179303aaf95e7f537b4b7cdc593611f60",
        "eccdf_rank3_empirical.csv":
            "a08f2ce5a15251287d1ed2f94f241d3d7bdef52ebd356279d558e24ba775e9bf",
        "eccdf_rank3_theory.csv":
            "30a5fec7b9e0785a092be0ba6570249e7c4b8180b6bc26a962cd5d39af04c3dc",
        "eccdf_rank4_empirical.csv":
            "bde8d7f4a91ad4f94492ceafda688bb8c3081be1bbb6884d4fb579b9f5cbb6ee",
        "eccdf_rank4_theory.csv":
            "12a9a3637e75dfab0e33b2dc0660d41fca29e79b99261b18a3363e9711d6eb65",
        "eccdf_ranklongshot_empirical.csv":
            "ca69758faf0bae3582a287ea84f98c416cd469f0d60b98164ebf250fdd889463",
        "eccdf_ranklongshot_theory.csv":
            "4e2aca40dfd3c017f24ef8735bc4e82a92c30eaa0e47cd7ca42e10ee8e266b7e",
    },
    ("small-fields", "--min-field-size", "3"): {
        "report.csv":
            "f062e43f74d3ea227652ee7e8c5b2549baa7693695bd1c4ef75831876fec2a93",
        "report.json":
            "279a0dd17fdfd6f2bfa3005ae131c339548e052e59ee0e3ad2950ea505251c20",
        "rejections.csv":
            "cf1daffcb4a815b9e66be3275f8441e08038c8f755df9197277fe264b6451e1d",
        "eccdf_rank1_empirical.csv":
            "daee54a4b08749b76d5ae759e062c9ddfccaac17c5c7b7649fb968eea5b56d8b",
        "eccdf_rank1_theory.csv":
            "053383c710b8dc3180542a5a99adbefd4ee2c4c122f6670c65c48306462a720c",
        "eccdf_rank2_empirical.csv":
            "c7705d633db6ee48de6e00e85cf4e918268d338c7290d6360ff05ba1f1ca931f",
        "eccdf_rank2_theory.csv":
            "c9a36a18485fdf6bd8d15c72770e7c90a6bf7a21ce9cf039653b0fb39a88150f",
        "eccdf_rank3_empirical.csv":
            "a08f2ce5a15251287d1ed2f94f241d3d7bdef52ebd356279d558e24ba775e9bf",
        "eccdf_rank3_theory.csv":
            "30a5fec7b9e0785a092be0ba6570249e7c4b8180b6bc26a962cd5d39af04c3dc",
        "eccdf_rank4_empirical.csv":
            "bde8d7f4a91ad4f94492ceafda688bb8c3081be1bbb6884d4fb579b9f5cbb6ee",
        "eccdf_rank4_theory.csv":
            "12a9a3637e75dfab0e33b2dc0660d41fca29e79b99261b18a3363e9711d6eb65",
        "eccdf_ranklongshot_empirical.csv":
            "0b08c1f32fea41ced5837fb88893f3b75254a9061ea6c4032b111deae133c9ef",
        "eccdf_ranklongshot_theory.csv":
            "e207faccbfbc931452064883a542f18491c7d2fec8147f9eae5db43db27f0b8e",
    },
}


def _digests(capsys, tmp_path, csv_path, extra):
    outdir = tmp_path / "out"
    code = main(["analyze", "--input", str(csv_path), "--output-dir", str(outdir), *extra])
    capsys.readouterr()
    assert code == EXIT_OK
    written = sorted(p.name for p in outdir.iterdir())
    assert written == sorted(OUTPUTS)
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in OUTPUTS}


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("synth") / "races.csv"
    code = main(["synth", "--races", "1500", "--n-min", "5", "--n-max", "16",
                 "--seed", "2024", "--output", str(path)])
    assert code == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTH_CSV_DIGEST
    return path


@pytest.fixture(scope="module")
def small_fields_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("small_fields") / "races.csv"
    code = main(["synth", "--races", "600", "--n-min", "2", "--n-max", "12",
                 "--seed", "2024", "--output", str(path)])
    assert code == EXIT_OK
    return path


@pytest.mark.parametrize("extra", [[], ["--renormalize"]], ids=["raw", "renormalized"])
def test_synth_market_outputs_are_pinned(capsys, tmp_path, synth_csv, extra):
    key = ("synth",) + tuple(extra)
    assert _digests(capsys, tmp_path, synth_csv, extra) == DIGESTS[key]


@pytest.mark.parametrize("extra", [[], ["--renormalize"]], ids=["raw", "renormalized"])
def test_tie_heavy_outputs_are_pinned(capsys, tmp_path, extra):
    path = tmp_path / "ties.csv"
    path.write_text(TIE_HEAVY_CSV, encoding="utf-8")
    key = ("ties",) + tuple(extra)
    assert _digests(capsys, tmp_path, path, extra) == DIGESTS[key]


@pytest.mark.parametrize("cut", ["2", "3"])
def test_field_size_cuts_are_pinned(capsys, tmp_path, small_fields_csv, cut):
    ties = tmp_path / "ties.csv"
    ties.write_text(TIE_HEAVY_CSV, encoding="utf-8")
    extra = ["--min-field-size", cut]
    for market, path in (("ties", ties), ("small-fields", small_fields_csv)):
        assert _digests(capsys, tmp_path / market, path, extra) == DIGESTS[(market, *extra)], market
