package graph_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"radiocast/internal/geo"
	"radiocast/internal/graph"
	"radiocast/internal/gst"
)

// digest hashes a graph's name, offsets and edges: two graphs with the
// same digest are byte-identical in everything the engines read.
func digest(g *graph.Graph) string {
	h := sha256.New()
	offsets, edges := g.CSR()
	binary.Write(h, binary.LittleEndian, int64(len(g.Name())))
	h.Write([]byte(g.Name()))
	binary.Write(h, binary.LittleEndian, int64(len(offsets)))
	binary.Write(h, binary.LittleEndian, offsets)
	binary.Write(h, binary.LittleEndian, int64(len(edges)))
	binary.Write(h, binary.LittleEndian, edges)
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedGraphs are the generator outputs TestGeneratorDigests pins:
// every generator that assembles through a Builder or stitches with a
// seed, at n in {0, 1, 2}, at experiment sizes, and on samples that
// need many stitch edges.
func pinnedGraphs() map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"figure1-gadget": gst.FigureOneGadget(),
		"figure1":        gst.FigureOneGraph(),
	}
	add := func(g *graph.Graph, label string, args ...any) {
		gs[fmt.Sprintf(label, args...)] = g
	}
	for n := 0; n <= 2; n++ {
		add(graph.GNP(n, 0.5, 1), "GNP(%d,0.5,1)", n)
		add(graph.RandomRegular(n, 1, 1), "RandomRegular(%d,1,1)", n)
		add(geo.UnitDisk(n, 0.5, 1), "UnitDisk(%d,0.5,1)", n)
		add(geo.UnitDisk(n, 0.001, 1), "UnitDisk(%d,0.001,1)", n)
		add(graph.Cycle(n), "Cycle(%d)", n)
		add(graph.Star(n), "Star(%d)", n)
		add(graph.Complete(n), "Complete(%d)", n)
		add(graph.Torus(n, n), "Torus(%d,%d)", n, n)
		add(graph.Torus(1, n), "Torus(1,%d)", n)
		add(graph.BinaryTree(n), "BinaryTree(%d)", n)
		add(graph.Hypercube(n), "Hypercube(%d)", n)
		add(graph.Lollipop(n, 0), "Lollipop(%d,0)", n)
		add(graph.Caterpillar(n, n), "Caterpillar(%d,%d)", n, n)
	}
	for s := uint64(1); s <= 3; s++ {
		add(graph.GNP(200, 0.03, s), "GNP(200,0.03,%d)", s)
		add(graph.GNP(300, 0.004, s), "GNP(300,0.004,%d)", s)
		add(graph.GNP(60, 0, s), "GNP(60,0,%d)", s)
		add(graph.RandomRegular(200, 3, s), "RandomRegular(200,3,%d)", s)
		add(graph.RandomRegular(301, 1, s), "RandomRegular(301,1,%d)", s)
		add(geo.UnitDisk(80, geo.ConnectivityRadius(80), s), "UnitDisk(80,rc,%d)", s)
		add(geo.UnitDisk(300, 0.04, s), "UnitDisk(300,0.04,%d)", s)
	}
	add(graph.GNP(80, 0.05, 7), "GNP(80,0.05,7)")
	add(graph.GNP(30, 1, 1), "GNP(30,1,1)")
	add(graph.RandomRegular(100, 6, 11), "RandomRegular(100,6,11)")
	add(geo.UnitDisk(200, geo.ConnectivityRadius(200), 3), "UnitDisk(200,rc,3)")
	add(geo.UnitDisk(400, 0.001, 2), "UnitDisk(400,0.001,2)")
	add(geo.UnitDisk(150, 1.5, 4), "UnitDisk(150,1.5,4)")
	add(graph.Cycle(10), "Cycle(10)")
	add(graph.Star(50), "Star(50)")
	add(graph.Complete(12), "Complete(12)")
	add(graph.Torus(4, 5), "Torus(4,5)")
	add(graph.Torus(3, 7), "Torus(3,7)")
	add(graph.BinaryTree(31), "BinaryTree(31)")
	add(graph.Hypercube(4), "Hypercube(4)")
	add(graph.Lollipop(10, 20), "Lollipop(10,20)")
	add(graph.Lollipop(1, 2), "Lollipop(1,2)")
	add(graph.Caterpillar(15, 3), "Caterpillar(15,3)")
	return gs
}

// generatorDigests pins digest() of every pinnedGraphs entry, as built
// by the map-per-node Builder and the rebuild-and-BFS stitch.
var generatorDigests = map[string]string{
	"BinaryTree(0)":           "427b690e3ec6f9a1094e7db54fd266baae8eabc2216cafe11b7efa8fb07cc30a",
	"BinaryTree(1)":           "3b14c927098a0569479584fd0580064fb0662a3694cdba0fab1c00209618419a",
	"BinaryTree(2)":           "beab12c0f425efa7de214103d7f8f406fdf9dec1f12fea966ba63efc41882d3b",
	"BinaryTree(31)":          "af80969d88765f14d0a336e8f43912e3090ad1fe78b5d90dff6937fd70760989",
	"Caterpillar(0,0)":        "06a8fea0196ec963d9555a92f80e679b2688c428110a792f0fd3e3802092f431",
	"Caterpillar(1,1)":        "0ba5dfcfcab0fb7a7129e3b707bc6b558749d2441c6d527fa663f55872c2707d",
	"Caterpillar(15,3)":       "ad9444504fae733fca5f5d362690543a4c426779527f688ea79bb83d45527f7e",
	"Caterpillar(2,2)":        "b868e0eb5cbc026a80155d555bf3c5cbaee7a46d390b284ed572cc218c8af48e",
	"Complete(0)":             "9ecd30a7bafdb0b2b689a3dc49c4f930b1a47fb78860671f819e53a83ce584e1",
	"Complete(1)":             "a161b2e806c10ad1193a4b22306aab841c3ec396dab28ce06ef1144b813254bd",
	"Complete(12)":            "5ca44488d06968ce1102b9f8c6177001cd94a86aef0c1bcc010fbc9470577583",
	"Complete(2)":             "4895da94a5416c3d302e6e5c5edbfc61df717f652fdf1b4600a3d4746394565d",
	"Cycle(0)":                "633764423023aa7c90b013c2ed87836f0573eb59e80ea156d041e407c3904203",
	"Cycle(1)":                "14bfa379382a661a52b2b7db731c0bfb91c419dde1839fcd8d4b5101f43d30f5",
	"Cycle(10)":               "188629a0913d07c69856291190f377db219a6a742fe34065bcd06b338c41282a",
	"Cycle(2)":                "f9f3db636392f6146426baa9b4a8b825f480b1944510b04596d5e60bbbf648c3",
	"GNP(0,0.5,1)":            "e210062e1184695aafa75d45d4073578f0afb0e2fb515e6f0f06641ac7b71e3a",
	"GNP(1,0.5,1)":            "d085ef136087c17c4a3b5bc7f250ea3da48f3e1ad0493141b4a095b00a70da6d",
	"GNP(2,0.5,1)":            "c7ffa3e5653de675011ee157e36a75e0278886e9fca8c62e4ba9d05ecbb8e3a4",
	"GNP(200,0.03,1)":         "13278691394dbd76390c0378ca0443e7739d3e2e2a6d8985df5460b6ab0f247d",
	"GNP(200,0.03,2)":         "08a15b60cc3ea2d0ceb8192f982c1b036d98a63828007d9c7baafe909dd2bb84",
	"GNP(200,0.03,3)":         "d19c558b460e31979963242d37928626cfacdc53c43fcfa7153156fd12dddcd4",
	"GNP(30,1,1)":             "d54539fd49d8ae1aebc7f645102b6308d8d8a460f5ff7e344a628682241c10b2",
	"GNP(300,0.004,1)":        "b8d14ec74ab993a9d676e979d574ae3181cc43ba8f5e40c51be16f4d0efabe06",
	"GNP(300,0.004,2)":        "cbd7021d04705b4d2025a8529866e90f6e65da7aca3dacd2cf595f839eb81769",
	"GNP(300,0.004,3)":        "2457c7ca2ea5e056e937b2d401bc5b3e5448109347b732ff9a9059fa087ca110",
	"GNP(60,0,1)":             "97c431e32d5711c8738979d6c23fc23303bf9106278b155dbdb016609a91dd27",
	"GNP(60,0,2)":             "93862c5c478b7fc01ee90a0105e9e2993587141c0ef6267254ce1f5b9bdd2787",
	"GNP(60,0,3)":             "7ef71da1a0d9d6ee85b096fcd43ef4460e15ca5bbb003528d6e5b60b6906e352",
	"GNP(80,0.05,7)":          "47d49a2263cd30e5f3a09309ef5fecc2596bed2d18f128ac34425a3337ae66d9",
	"Hypercube(0)":            "887d43bba88eed106db9c887f16e10d245befe2a0dda35d2a8fa52ef36791daa",
	"Hypercube(1)":            "b99627bd7039f15c37e4308947c40f216dee276b4e445e09f91d92faf2cffcb5",
	"Hypercube(2)":            "34457b0ec3d1d7defe6fd663b9ba04b067e9c4c9370e0b9f84cad9391cca486f",
	"Hypercube(4)":            "6187980d37023f93ec393f5dcc269984d4313b85600bd956b1b4a8758381c45b",
	"Lollipop(0,0)":           "ffd998a2ac9ea4c16747f7e114607b5af2af8ba1a3239ccc7d8a987431315433",
	"Lollipop(1,0)":           "463705cf7dab3533a1c1789341ab60151fa510316a08b96b96b1fd88ea2d758f",
	"Lollipop(1,2)":           "c4aefd552ac49262aec13a56986427a6faecdde5c2f85b5f3ba416abb0731375",
	"Lollipop(10,20)":         "e736b74352141bea81b28b996e0c0d3dcf907577b912ac54bfe14e0bc6e555d5",
	"Lollipop(2,0)":           "e1480d4e3883959619292e5a2f76e92ede300ec5e7bd40080008d4d20970795e",
	"RandomRegular(0,1,1)":    "e941e224815a362355f5659b8ba6be586053eab762fe178c25724276605830be",
	"RandomRegular(1,1,1)":    "a60ebbe0d37576f558f3c1f28c969af4caeec953399814dc09fafc749f69fddb",
	"RandomRegular(100,6,11)": "f7543dcb57d86058fea139a798847eb44d9916a67b63414dc10198807c0b130d",
	"RandomRegular(2,1,1)":    "fa2d029c8ecda0e9ffe8e0a7b743dd95845f842d33e1252cf9dfbc895d07e9cc",
	"RandomRegular(200,3,1)":  "92f373f0ac120d49040f362f8bff5a4ce24fb112e111cc5ac7dd26727e5f8718",
	"RandomRegular(200,3,2)":  "8cddb36849e4518563e26ca25b267ad87280ba6f98ccf923064e9f91dbd8a75c",
	"RandomRegular(200,3,3)":  "4b7cf216151e02c8da3b845a66802ce3f16caf3550aa15648c947fa78d124979",
	"RandomRegular(301,1,1)":  "c2d5c87e794329cef97e41b7bec79b42aae51880cfb63f286c8655bfae6fa22e",
	"RandomRegular(301,1,2)":  "558887c36d537236863a3664d531d5d984e6527b42e56091a1569f83c9862d6a",
	"RandomRegular(301,1,3)":  "1f426ab7579aeb72bd3cda570f3e5c669bfda843a75f0ab869ffe9bf31323097",
	"Star(0)":                 "ff5b3ecafc35346e9076763b02b206933153bd699e95fd51a5ad60f84c852e05",
	"Star(1)":                 "289b83f9d7e93ddd10dcf57c67a0ad73bd3a923351cd3594d105b5dcf4f4688c",
	"Star(2)":                 "f22763bd4b49605acb5344b3759d20a3641a8be48d61ac28d28d5c94a76f54ef",
	"Star(50)":                "5575ea1d7f8cdc95c14eb11d053ef92ef0704309c7e6b0fb27714bafe8c9f51b",
	"Torus(0,0)":              "24add2f071dfaab30053d387641a144e1f03c3239ad7861617242e420892ceb9",
	"Torus(1,0)":              "47babcb5c4695aeac8235b415dca2e95ec2117a18e7471f15c415990ad0f527b",
	"Torus(1,1)":              "9f51145fdd5b10d5c40d335c1321f91cc118bf96a5ec8fac36a0d0e0b0cc320f",
	"Torus(1,2)":              "ff2f6295baa7b93ffd71eb2ee3973b6a2c7b2d97dd4bcca564bcdf258dbde9fa",
	"Torus(2,2)":              "a6010e56d22e71aaa275d19fd52a1eebd8fe881be8f45cff02cdf310164cbdb4",
	"Torus(3,7)":              "19444e6152cda5adc18ca1d4b8dde3d5499b00446ff3040f75fc0e2874d5c3c4",
	"Torus(4,5)":              "bcec63c34fd8c84fa057689cd688cdfea86c59fbbf10f1a51dbb3082c5e8f28c",
	"UnitDisk(0,0.001,1)":     "e7fb350e92d77ecab2afa04bd66b0779ebd626fc3a5bb0004896b16b14cbb1fe",
	"UnitDisk(0,0.5,1)":       "e054e996bba372f8ee3b973c4326cef88186c7bbe7e9682c0d4e8302cf352579",
	"UnitDisk(1,0.001,1)":     "88643b4a49b77d33c2811133287ea5e4bb4ff808408caa310dd237a4884f8d3c",
	"UnitDisk(1,0.5,1)":       "d256782710355463e7da55ad931f5abd2153067aab9c955cb8df1e1ce3415557",
	"UnitDisk(150,1.5,4)":     "965149074bf5b13e97adcb98deb9a1ef2b03d021894464cde0e2e4c45d9cf57e",
	"UnitDisk(2,0.001,1)":     "6c6cf4655ccb9fe9524c24e1a95d0b1c3d36265de32803d9a05b29dce0c6134e",
	"UnitDisk(2,0.5,1)":       "f931119cbd46ee7e4697a77b9d247d57b2472d74ac4c55aa6e2635a2ffdd0f26",
	"UnitDisk(200,rc,3)":      "b086ae321c7559cdada7ba54f025aff29febe9931a3b566ad2f03849889d2873",
	"UnitDisk(300,0.04,1)":    "48e629ddf84a28da9c6a65a5d63b68ffe3ba6de5d166982fda4e718d04ff2805",
	"UnitDisk(300,0.04,2)":    "b8bd36785a3afc80b520dd993a911029690087aa0dc2f9da5a2fab7eef0caa6b",
	"UnitDisk(300,0.04,3)":    "07edc38b9badadb1cafdb204eba2507d1b772d029eac293bd14458e476aaafdf",
	"UnitDisk(400,0.001,2)":   "31576f8906bb2e72f5b2c5e0dfc5ebf16883b4db7371959f85b7cf45bca31492",
	"UnitDisk(80,rc,1)":       "b943a5ecadecd3d690cf97a83f532560a74063e85632dba05eabf1f14d0a01eb",
	"UnitDisk(80,rc,2)":       "87269337841a1b91bd2fe010a90c7db734559f9990852e336c774e87533d407d",
	"UnitDisk(80,rc,3)":       "b44e3d70adc34993edf7a4cd77031339602981ffc781c3788b99b148e7f2e3fa",
	"figure1":                 "866bc17de5d4e0f433c405597bbd725efc866569d09d55e8ff91477011143499",
	"figure1-gadget":          "eb6335cd37b07408f482374747434065b0dfe8df7a77fcfe05476ff8cefdf746",
}

// TestGeneratorDigests pins the generators' graphs byte for byte, so a
// change to how graphs are assembled or stitched cannot change one.
func TestGeneratorDigests(t *testing.T) {
	gs := pinnedGraphs()
	for label, g := range gs {
		want, ok := generatorDigests[label]
		if got := digest(g); !ok || got != want {
			t.Errorf("%s (%s): digest %s, pinned %q", label, g.Name(), got, want)
		}
	}
	if len(gs) != len(generatorDigests) {
		t.Errorf("%d graphs, %d pins", len(gs), len(generatorDigests))
	}
}
