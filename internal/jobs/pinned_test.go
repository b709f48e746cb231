package jobs

import (
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/spec"
	"repro/internal/workload"
)

// defaultSpec is the canonical form of the pre-grid default payload
// {"users": N, "seed": S, "duration": D}: the makeidle scheme on Verizon 3G
// over a diurnal study-3g cohort, each axis value carrying the label the
// flat payload was keyed by.
func defaultSpec(users int, seed int64, duration string) Spec {
	return Spec{
		Seed:     seed,
		Schemes:  []fleet.SchemeSpec{{Label: "makeidle", Policy: policy.Spec{Name: "makeidle"}}},
		Profiles: []power.ProfileSpec{{Label: "Verizon 3G", Name: "Verizon 3G"}},
		Cohorts: []fleet.CohortSpec{{Name: "study-3g",
			Params: map[string]any{"users": users, "duration": duration}}},
	}
}

func withScheme(s Spec, label string, demote policy.Spec, active *policy.Spec) Spec {
	s.Schemes = []fleet.SchemeSpec{{Label: label, Policy: demote, Active: active}}
	return s
}

func withProfile(s Spec, display string) Spec {
	s.Profiles = []power.ProfileSpec{{Label: display, Name: display}}
	return s
}

func withShards(s Spec, shards int) Spec {
	s.Shards = shards
	return s
}

func withBurstGap(s Spec, gap time.Duration) Spec {
	s.BurstGap = Duration(gap)
	return s
}

// gridSpec is a multi-valued grid mixing derived and explicit labels on
// every axis, a parameterized scheme and a trace-fitted batching scheme.
func gridSpec() Spec {
	return Spec{
		Seed:   1,
		Shards: 4,
		Schemes: []fleet.SchemeSpec{
			{Policy: policy.Spec{Name: "makeidle"}},
			{Label: "tail2s", Policy: policy.Spec{Name: "fixedtail",
				Params: map[string]any{"wait": "2s"}}},
			{Label: "batched", Policy: policy.Spec{Name: "makeidle"},
				Active: &policy.Spec{Name: "fix"}},
		},
		Profiles: []power.ProfileSpec{
			{Name: "verizon-3g"},
			{Label: "lte", Name: "verizon-lte"},
		},
		Cohorts: []fleet.CohortSpec{
			{Name: "study-3g", Params: map[string]any{"users": 4, "duration": "10m"}},
		},
	}
}

// pinnedSpecs lists, for every flat payload the tests and clients have
// sent, its canonical spec with the v4 job fingerprint and cell key the
// flat form produced, followed by multi-cell grids (gridSpec and the
// benchmark grids BENCH_grid.json records) with every cell key in plan
// order. Store records and cached results stay addressable only while
// these strings hold.
var pinnedSpecs = []struct {
	name  string
	spec  Spec
	fp    string
	cells []string
}{
	{"users=1 defaults", defaultSpec(1, 0, "4h"),
		"4ba1a40cd15e5456aee39eb24b3b9ab103e7705245e49f3248b6dce79902faca",
		[]string{"d7afa0ee77bb47eccd41cdd5bab56218374c27a1ad1633d0a70911f7807dadfb"}},
	{"users=2 defaults", defaultSpec(2, 0, "4h"),
		"a292fd291746010f203067889618f74f2d7ca3193428685310d8fbb40aaf4eae",
		[]string{"96428acc84b999cf5bd770ed904205f6f4141d5acffbcc41d4d20158178f247b"}},
	{"users=10 seed=1", defaultSpec(10, 1, "4h"),
		"df528b368b4c6f09654ed1a1e29a26f7696559aefa8382b16155f60864bb02db",
		[]string{"4c498600ba8b922deebb090f427cdfd3891dc50c96905034bb34785ee1244bcf"}},
	{"users=11 seed=1", defaultSpec(11, 1, "4h"),
		"587da44aa057e3147841125a8ca21fa18af2ca58a68b16547efad86dd8cd1b07",
		[]string{"e3dcf2060f25da0409d613f080b03c34bdcc89af63b905817c639c664e6576c0"}},
	{"users=10 seed=2", defaultSpec(10, 2, "4h"),
		"b0c7e42a9d7ed88deb12c68ce816afa1cdf6d66a3da665b889837ed16eb82b4c",
		[]string{"d3512e1e0375301c38a56b275613d4330aff46e9eab08099c52734ac5e36065f"}},
	{"users=10 seed=1 1h", defaultSpec(10, 1, "1h"),
		"fdbbf5ba84442e1cb0da146c21abcb7e23bc253cfdb6c3c59b12b13c3da3a2a0",
		[]string{"d9c7bdafa9140665cc791d532020236bca419e17f77c680dcd9f2d75abb59e41"}},
	{"users=10 seed=1 oracle", withScheme(defaultSpec(10, 1, "4h"), "oracle", policy.Spec{Name: "oracle"}, nil),
		"7dfd9cc7d7108306db164ddb02cf2d14492bf1904934803ae1c9b1f8f8c81527",
		[]string{"dcc67f001208354992e6a45a8288b628222f4a58e20772f006809b5b04e58c21"}},
	{"users=10 seed=1 learn", withScheme(defaultSpec(10, 1, "4h"), "makeidle+learn", policy.Spec{Name: "makeidle"}, &policy.Spec{Name: "learn"}),
		"e0f5af81781312a1076442c00a994ae805a1c135bc2b20cd96ea03ca9ced1d67",
		[]string{"a639156cae230dbb265bee1301fb66ff48c182d81bbf25e93398e76bc8397768"}},
	{"users=10 seed=1 shards=7", withShards(defaultSpec(10, 1, "4h"), 7),
		"1929ba75d266801351df54adad3c807ec96e13e1f1e6e63807180f07cd8142fa",
		[]string{"10e9f88b1a68d3cacf51dad1ece1ca74562928b38945ac65c476000ac11f201d"}},
	{"testSpec(1)", defaultSpec(1, 7, "15m"),
		"020673c80a6b57c186b77f28e8cf6aa109aa32f1f19e28a93bcd19c4fdb693c5",
		[]string{"c1c6af19f91681ef3a2bb6f7b499e270191aeaec25de45ba7fa0fe31a0914508"}},
	{"testSpec(2)", defaultSpec(2, 7, "15m"),
		"6db73c4362546f7de577a2a3aa349ac55f3ed5c2916ee7e59c8e69d6c091955d",
		[]string{"fce98ac4a2820773710caea1ba5f7c6e2f0c7fbfc3a0db93cc3f5b2975af52b6"}},
	{"testSpec(3)", defaultSpec(3, 7, "15m"),
		"1b4d1b963646c9be545e067a6d040a4295d0a25cca3a7fae9e54795781d53ce2",
		[]string{"db58bdebed1211688186babea4cd486ea8687ff46e1bdf6d0f547303647f4af6"}},
	{"testSpec(4)", defaultSpec(4, 7, "15m"),
		"3fb89d962896003dc1a0aa0f4fff8a384e4b0c4f838fd68fd6d090333c9589fa",
		[]string{"b081518269e7579c34b1ae1b81167248e546116a7642358b27d8b0ddb6482735"}},
	{"testSpec(8)", defaultSpec(8, 7, "15m"),
		"36914c24e8446eb8ea29c6b53552a1f70e6d5ce7d9dd09c46199b3f616ef7f76",
		[]string{"b2cdb5e52eaf7e1e28ff4c86fad6f24258e9deb863a55d5d9de6359717f94aeb"}},
	{"users=5 seed=3 20m", defaultSpec(5, 3, "20m"),
		"e6bd0d17fa85e8c6cabddb03257f2aa7f988c7b071ba05b90585b326cf76bd87",
		[]string{"dc73f6d93243aa802e01751df50d11755c1729e1c68180d94447ccc20086ea7c"}},
	{"users=2 seed=9 4.5s scheme", withScheme(defaultSpec(2, 9, "4h"), "", policy.Spec{Name: "4.5s"}, nil),
		"c0a5d16189c2cbecdad0d47204753e6d5f8d53c72e774d1aac4f27ed6435eddf",
		[]string{"1f9d06426a77cfabb1f6d2216fc20dbdb9dde6c91d4c20b237698624e6146c31"}},
	{"alias statusquo/", withScheme(defaultSpec(5, 3, "30m"), "statusquo", policy.Spec{Name: "statusquo"}, nil),
		"b70bb8a90c623359890bee4aa7b669356520dccfabac9146b168c994174aa959",
		[]string{"6f1b2d9ff7552a4fa55db793c14630b25bd376095a056c7296d290c585cdc51c"}},
	{"alias 4.5s/", withScheme(defaultSpec(5, 3, "30m"), "4.5s", policy.Spec{Name: "fixedtail", Params: map[string]any{"wait": "4.5s"}}, nil),
		"ca6ac634a9d94d6d2b5bb7a933d70087ef7524a882c14a7c67a2fc29edd64539",
		[]string{"ce93ab117a6a064f6c5e1ae2f751636313ad4b733a3d879f76ecb033c08283c3"}},
	{"alias 95iat/", withScheme(defaultSpec(5, 3, "30m"), "95iat", policy.Spec{Name: "pctiat", Params: map[string]any{"q": 0.95}}, nil),
		"25f35df327d6c076955aed34b5ab10d93bda14352a6f1fcede3512d98d64e9e1",
		[]string{"9c2549fe15ca83ab7037ddabde1fbc91052a0c77e2f6e52f1a3c22e3cac64d01"}},
	{"alias oracle/", withScheme(defaultSpec(5, 3, "30m"), "oracle", policy.Spec{Name: "oracle"}, nil),
		"0532f1dace8465a74c0e0cfe17adaffcd2a5ea8d7b1a48eb641b59b3100f6448",
		[]string{"ad9025600016a1fad41f70856f843059e9d054d57a30ddbb1dd1a7012a088554"}},
	{"alias makeidle/", withScheme(defaultSpec(5, 3, "30m"), "makeidle", policy.Spec{Name: "makeidle"}, nil),
		"e9abd63457f930b0c5f41d7d9fc70cdd6ae0d5a7727652206b931fb50b837662",
		[]string{"a170a217faaa97748d06d12a62964f9f8d9d50f14c6c11d22ff38f9c48a73d4a"}},
	{"alias makeidle/learn", withScheme(defaultSpec(5, 3, "30m"), "makeidle+learn", policy.Spec{Name: "makeidle"}, &policy.Spec{Name: "learn"}),
		"b2f472af5924d7f396855a2e9b92c69853af48f255620b4435708f6a38764441",
		[]string{"06fbe9da6283860ba91ca9b2ea9f10e75d1e6543c487cb63d5f783865a46e221"}},
	{"alias makeidle/fix", withScheme(defaultSpec(5, 3, "30m"), "makeidle+fix", policy.Spec{Name: "makeidle"}, &policy.Spec{Name: "fix", Params: map[string]any{"burstgap": "1s"}}),
		"a9b0d4cab9f1b04b26a50d88f04fab3d5bd8f6343abac9bce26b5ae7acfd2db8",
		[]string{"2f677abb24fab45ea1b0ae3a4947b6f2b59880f3d310732d005947d320604306"}},
	{"fix burstgap=2s", withBurstGap(withScheme(defaultSpec(5, 3, "30m"), "makeidle+fix", policy.Spec{Name: "makeidle"}, &policy.Spec{Name: "fix"}), 2*time.Second),
		"7279075c4f7833be77f19d0ce87562d9fa1947560ca5cfe227ad98e59bbfedbf",
		[]string{"1669d005553a7fcf662274afa0bfb05e8b6422e91ad51591b4b8a599b126d729"}},
	{"profile Verizon LTE", withProfile(defaultSpec(5, 3, "30m"), "Verizon LTE"),
		"356e6d3c51830550f2c6a280f744e38dfd6175f66ebbfbf0866bc18fee40593c",
		[]string{"27b3c9c1b1a516861741ad0c070ecfeade32728dc7dd932ea4dae6d08401c0c0"}},
	{"users=3 seed=11 10m shards=4", withShards(defaultSpec(3, 11, "10m"), 4),
		"d22cda7f7a3b31e73f81d5cb8513ddcbda533a4028402de6fa852c46dbc30d73",
		[]string{"1dfd25238bd9c021eb1280fa466ca6cc69d0e1ad1c6807899d50aaed9cbd8237"}},
	{"users=3 seed=12 10m shards=4", withShards(defaultSpec(3, 12, "10m"), 4),
		"bb01466348d5089e308a138d8153c71cfcf4a9484cfbdda48ed85fd959ae6b73",
		[]string{"cec0d607175fbb82b0c485b002bdd9effc9ed7dc8335bd240466877749432e2e"}},
	{"testSpecJSON(21)", withShards(defaultSpec(3, 21, "10m"), 4),
		"35a2c670400b71b33d896a9838b9b8cab4206df356258da2e5056fb75082ef03",
		[]string{"b11981daa736e426e498a458c8802e9f4a3a015fb6efe11647f385e2fcaebf36"}},
	{"testSpecJSON(22)", withShards(defaultSpec(3, 22, "10m"), 4),
		"16aabaaacc8653815e69fd0f5b0f72e93651b71b75b160fce7b701874ca2aba0",
		[]string{"62b7883ec30877e13bb80deaa92cd42cc33c6b79942692272c6c9639af76cdfa"}},
	{"testSpecJSON(25)", withShards(defaultSpec(3, 25, "10m"), 4),
		"704d3f080f0c74600a1c9f8f32c93f75f822151de114dc54b518ee88c06b5c4b",
		[]string{"7c1d2cd5859ba6ce009d151bb25b1d41d37c70219637fce7cfa20fab1583bad5"}},
	{"testSpecJSON(31)", withShards(defaultSpec(3, 31, "10m"), 4),
		"4725636b69007ab8b9120490a9a7d3b374420434a18b57e4aaaf0bea4eefa98a",
		[]string{"f7fed1dddb9ac111db5c2ada2be9ac43011442f23fe9301c606c3c7c610f9e31"}},
	{"testSpecJSON(32)", withShards(defaultSpec(3, 32, "10m"), 4),
		"8d267f28d4781f67a72ed0b376843b804ccb8312df8a24a28dba7df87ba13b18",
		[]string{"367e67f0a4cb075c21f6c2c7af15aaf0a85db1f53275bd4a17f040716a1878da"}},
	{"users=4 seed=23 10m shards=8", withShards(defaultSpec(4, 23, "10m"), 8),
		"c5a215e855dace2250e00f646800d974ac49f522f87456ed2518e8922e1737b6",
		[]string{"1a70bbb95229895b08b89deb6c60b7ce4b06fcdcb6b321b80dd2d3843dbccca9"}},
	{"users=64 seed=24 2h shards=64", withShards(defaultSpec(64, 24, "2h"), 64),
		"c7a77d9a9a9efd5b5b706e66dbcacc7837bef8bbbf3ab286097df93dbace712d",
		[]string{"6ad85873ade7a6b4e8ccbd38f37308c350796aa5d7509b72aeb6580cdcf97748"}},
	{"users=4 seed=51 15m shards=4", withShards(defaultSpec(4, 51, "15m"), 4),
		"2e61feb59e4460ca262a77128ce1a54bd33b8b47904ef1a69ca37184a488ce93",
		[]string{"1f2ebcea5d6a8a6340b6e46d7ab85409dfeccc3078ee3dab03e0593fcfb2f8f5"}},
	{"users=3 seed=52 10m shards=4 4.5s", withScheme(withShards(defaultSpec(3, 52, "10m"), 4), "4.5s", policy.Spec{Name: "4.5s"}, nil),
		"6fd5bd9684787d79479b7164fe18d3061b7793a9e20751f4153f6590db390548",
		[]string{"b1af3eccb24d66a68026d69ad3d4f5c6a9716073475a1624d947538be21f7cf2"}},
	{"users=3 seed=63 10m shards=4 Verizon LTE", withProfile(withShards(defaultSpec(3, 63, "10m"), 4), "Verizon LTE"),
		"fb5edb275db895342f58efe485f378ba1a53f92ce1c32d20a01c7ddaa82d83fe",
		[]string{"b94028fd652869f6e5731aa35213752c3fba28a832ec7617170147544636571d"}},
	{"users=2 seed=9 5m shards=2", withShards(defaultSpec(2, 9, "5m"), 2),
		"47356af33a93978eec84aace8443fd5d173a69c9f9a90c7e03ec8c71e3d967b5",
		[]string{"a4caa2a194ad6acaa40445b2b97eebdcc07f61c45cf73e61e76788af530c65d2"}},
	{"users=1 seed=3 5m", defaultSpec(1, 3, "5m"),
		"666a593fe7ba23ef0fea2c8506404de1f14ebcbbf023f9b42b582b93c7ccd815",
		[]string{"5d600ccde8e69ac5e347a723546625195e8ea90af5a21fdce2a1746933d44b52"}},
	{"grid", gridSpec(),
		"5fd1985869e342d0138ad3814c56f54566ac4555c889b447ef2b279f8dd46d62",
		[]string{
			"2f339bb039ebefdcd4df4be21f0c905fca4b6741bf7516ef8efcad99876b50f6",
			"f55f86caad592c1e5c05ea830b609f5e9dae893fbd43ad9e43def660fec4b88c",
			"a90f39bdd3d43ef549148aa69569c82feac87ecedd5ae5f6277e1fbccdf4ac5f",
			"6249c608a4d912afccc6be5a6817613d3cdb4d5cf8a417a790eaba6f2e14bc8e",
			"6ab014365f4957e96383d89165f66ab91dc6099cf527a2c315b80ee110ade09c",
			"26a8420de0f745593036fa98b86466a7c7103aa21be4c4fc198e929282d4ddd1",
		}},
	{"BenchGridSpec", BenchGridSpec(),
		"ea92873f4aa9e9e88b1904299847f7108279e1181b412be0f70064228400c5c0",
		[]string{
			"2f339bb039ebefdcd4df4be21f0c905fca4b6741bf7516ef8efcad99876b50f6",
			"528b1599317846d71b6d7bb078db05d799ee5564ed6cca2a438e685bd97fb18f",
			"91ea34ded00a22e6dbaf512345d4914b20d3de6b04f4ab0e1669aacd8443966a",
			"867d5c858f51e88ece81abe161b9db5b51ee424646ac4510d2dda05149c863bd",
		}},
	{"BenchWideGridSpec", BenchWideGridSpec(),
		"1a1b0d0176ccbdc301e6f9b29f78d2e893d22fca2e77c43eb327cd134f528f38",
		[]string{
			"42568b5f70f6773f05f9a856d73ba7837c4e22173b4ae31d22a5c1c12a746441",
			"c95a443c3870f17fed1e2962e16737d05f0b7b0d59b173fb3dd4ffbc77e6867c",
			"a3c32ecbd6deebe354f9a3587af6420aed6b9cc47bde9439aa0fed2ccc52db47",
			"af99f0d4b9d25bfeec32cf14fc85f69f569e688fe689aba6beea9d0d9e0b9148",
			"179e5effe7b787e361108718407027a6d0e1f348bb1d4a1678c3e0c8129a8ca2",
			"cf0050b3f5e245247e0d7b4d8ff0a234e4caf084696fa9438511aefa2939761e",
			"55ebe76f143ed9fd9810a2fce1c47928e049c7b05cb06673c9fb9f125f1a0b03",
			"0b2588ca075f168c8401b4f519143ec3a136f767205ee183cb3b14a65a9be999",
			"cd627e4e21a491974002e3f445656c83cb7dc8ec4bf34dbb9ff0c5648e7ef949",
			"d50f0cad54103e4bbc67f9c54a11bbb164baa37be7cc2946a61ccd730dd9daf1",
			"4577a8b143c21a2645e8e6f69dcf3bc415dc12d0bfb068e6e6c794f0906dafce",
			"3d37eb6e3c82f5f646a42055e0bc6d9eb9e447e24dae4c4de0556a525dd07e2f",
			"9dd3ec700542fb830c5bafaf55f7b11dea253949ea4f635363978ca9828eec82",
			"fbdca6c2599cb6d8e1244eb08961fbb17ada8d516a7e4e422be9ebd7b67b0c07",
			"8db21e751d7332a32a0a9dd6387caf2c7993918f70b941de9693811923d19d0f",
			"a271ddb960b63613e786521d14e35f3ecb7838ef74ce988ac7ff2518007154dc",
			"00fe67af5b806814eb5833440642262c4c31032fd420ac523e0c4b90336feebc",
			"9019b2406cf4e072d952da8bf5c461afa5223f73aa9e0de30d95c954ce30077e",
			"6697f131f48e44ae405e5f359864e24646c791817963a4eb0b4949f9bee72c89",
			"ed72a24a3043fb46de8827a0dc409b2a8a94fcde4693846bee387e6bcc8afe7a",
			"75b4349f7fa12bc7ff5508a2eab6edeae403214759ce66b8086c6170f6573915",
			"9f2d319011fe410e5bc674990ded5b3da1fbdfb4bd2885871fe40f03e9d2a6ad",
			"e5adc893779d704bdc6f71168d871a2c48d821c6ff700d2ede5bb6edc7576c97",
			"ec92bbf876dd9fd59f3088d4d8c1ae24396f40a3d4733a5c4c936084e8ae775b",
			"30d913b42f5493137006564a641f49a64b03f5bf7cf62149984e783d43a76255",
			"b270dca1b9c5a45e8394817aee65a964bee650cdc02d836fee41155c5244d91c",
			"59a511451ae976f52ef0a118abdbe13dc2193286ef534c9b8395a56f4aa4f129",
			"5d3c68bb49d551d536dc2be9d2147a790062dc8f230ce0325fec8d2e9794fcc2",
			"8b1e7e55133d85e169cb82e55f372e7bf6a2646548c9366c70db047cb96edc90",
			"9761ef607daf681ce89cdf765cf1a854d75602435f8d1c43d104faabaae11f19",
			"28a3a542f9cce191822e05d155e88ede3c71a0fe9b07c6a0854d3a8a2c20b4bb",
			"f3822bddca4d922c50a2185bd48a795bcb918f8dafd1615a73135c0b7eef0389",
		}},
	{"BenchSharedCohortGridSpec", BenchSharedCohortGridSpec(),
		"1660968a1ecf4d56108179d3e90f08b757b9e705adb5f1d50a5189602e0c06ce",
		[]string{
			"7f1ef2e797fce9b483cf949e22fa0971271757769cc367f58336aad996136eab",
			"1859745a3d7dbebbd0a8f1cebe866202407512e802e00530e3de14127630b1e1",
			"48baa2259557b0f473822be80d64792896158786a859b3a2dfa3102a1a86eee5",
			"7c4553f18d65bdefcec1bee58b2c7b3f90e0c1df87ef97c26743ed32b150e462",
			"611371627fc9c5a91ff75c993145a3fe1eee3ff13b9ff8d69bd967ab0f935c4b",
			"fc86f0d099d24feaadd4ea26b15fc0a8497af0a8a2d8f186fa7bca22e2357368",
		}},
}

// TestPinnedFingerprints: each canonical spec yields exactly the pinned
// fingerprint and cell keys, through both Fingerprint and the Submit
// path's axis-cached plan.
func TestPinnedFingerprints(t *testing.T) {
	for _, c := range pinnedSpecs {
		if got, err := c.spec.Fingerprint(); err != nil || got != c.fp {
			t.Errorf("%s: fingerprint %s (err %v), pinned %s", c.name, got, err, c.fp)
		}
		s := c.spec.withDefaults()
		cells, fp, err := s.planFingerprint(fleet.Options{Shards: s.Shards}, newAxisCache())
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if fp != c.fp {
			t.Errorf("%s: planned fingerprint %s, pinned %s", c.name, fp, c.fp)
		}
		if len(cells) != len(c.cells) {
			t.Errorf("%s: planned %d cells, pinned %d", c.name, len(cells), len(c.cells))
			continue
		}
		for i, cell := range cells {
			if cell.Key != c.cells[i] {
				t.Errorf("%s: cell %d key %s, pinned %s", c.name, i, cell.Key, c.cells[i])
			}
		}
	}
}

// TestPinnedAxisEncodings pins, as literals, the registry canonical
// encoding and label of one parameterized value per axis registry. Every
// fingerprint and cell key above hashes strings built from these
// encodings.
func TestPinnedAxisEncodings(t *testing.T) {
	demote, derr := policy.Default().Resolution(policy.RoleDemote, policy.Spec{Name: "makeidle",
		Params: map[string]any{"window": 250, "minsample": "5"}})
	active, aerr := policy.Default().Resolution(policy.RoleActive, policy.Spec{Name: "learn",
		Params: map[string]any{"gamma": 0.02}})
	profile, perr := power.Default().Resolution(spec.Spec{Name: "Verizon LTE",
		Params: map[string]any{"t1": "5s"}})
	cohort, cerr := workload.Cohorts().Resolution(spec.Spec{Name: "mix",
		Params: map[string]any{"users": 1000, "im": 2, "email": 0}})
	for _, c := range []struct {
		registry             string
		err                  error
		canonical, label     string
		wantCanon, wantLabel string
	}{
		{"demote policy", derr, demote.Canonical, demote.Label,
			"makeidle(window=250,gridsteps=40,minsample=5)",
			"makeidle(window=250,minsample=5)"},
		{"active policy", aerr, active.Canonical, active.Label,
			"learn(maxdelay=10s,gamma=0.02)",
			"learn(gamma=0.02)"},
		{"profile", perr, profile.Canonical, profile.Label,
			"verizon-lte(t1=5s,t1power=1325,send=2928,recv=1737,promodelay=600ms,promopower=1325,radiooff=1.33,dormancy=0.5,uplink=8,downlink=20)",
			"verizon-lte(t1=5s)"},
		{"cohort", cerr, cohort.Canonical, cohort.Label,
			"mix(users=1000,duration=4h0m0s,diurnal=true,seedstride=1,news=1,im=2,microblog=0,game=0,email=0,social=0,finance=0)",
			"mix(users=1000,im=2,email=0)"},
	} {
		if c.err != nil {
			t.Errorf("%s: %v", c.registry, c.err)
			continue
		}
		if c.canonical != c.wantCanon {
			t.Errorf("%s canonical: got %s, want %s", c.registry, c.canonical, c.wantCanon)
		}
		if c.label != c.wantLabel {
			t.Errorf("%s label: got %s, want %s", c.registry, c.label, c.wantLabel)
		}
	}
}
