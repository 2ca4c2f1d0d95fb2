package mapper_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"simgen/internal/aig"
	"simgen/internal/blif"
	"simgen/internal/experiments"
	"simgen/internal/genbench"
	"simgen/internal/mapper"
)

// mapGolden is the sha256 of the BLIF that blif.Write prints for each
// mapped network: every genbench circuit in Registry order, then every
// putontop stack of experiments.ScaledSet in its order.
var mapGolden = []struct{ name, sha string }{
	{"alu4", "c7e0a72cfdd4856165cdad94cb4012b4958d9d9ce99f6255ee914f2ea1503ccb"},
	{"apex1", "29e77d818cf5353f10319edb304ee776d8ae53ad6e69777e2a5162832025d3e5"},
	{"apex2", "73b5adcd085ff2afae335307b08756b42d4d3c28fa91b8b075519e6b0f2f6789"},
	{"apex3", "a83b011e7960a002147fe5c19df37c34cb303daaa5f52bc0a90efba6753da396"},
	{"apex4", "f2dc119914c92e3fcfcbf2444c8dd2661260654328a515c29d5f2fa89cb651e6"},
	{"apex5", "e71d608987a085556b28077010cba9dfa86a882ed95b5dc1ab58f4afe5c72c1d"},
	{"arbiter", "ea79aecbe45ace0d1bbe792fff4419541b3977dd94e3563820933199faba1682"},
	{"b14_C", "438e8cc47be6c5b30383b797af4d39765481ff47f092b45c0fd4ddc1b411bd3e"},
	{"b14_C2", "476912d2a2ea1d62a4e0c7e1b5eaaa2546895f72b1206f3727cb185467f665d7"},
	{"b15_C", "0393eb9d9bd864996052b6053464eb3e18b671bf85455f684e9bf4ae6aa2eb70"},
	{"b15_C2", "4fbe9b14d29b03c60c50d5bc819f338eb260d9303934086f0c09585a0b52810f"},
	{"b17_C", "2dffbd8ca95de1bfd25250589d0fe4beb8c9431dcac444e7f9c029d40e5ae1c8"},
	{"b17_C2", "3a219881be0275c1b24fbbb72aa4d8fced5f1d158a9c67d9bc8c5ab419299592"},
	{"b20_C", "502cc7206e5ad6fe00066e7b8e6de89744dd17a166a21cceb1ccde32158a347c"},
	{"b20_C2", "3d6c091a25249e5590900ee93273a8bcf24b8c98b8f46a94f34b0abdd45d4dfb"},
	{"b21_C", "610a40aec41477899ce1930436addaf471f69da261d697e6eda42825a2c20141"},
	{"b21_C2", "4a86519052930b840556d45ad2006f0709127e889d4e812fc62019979ffdad1f"},
	{"b22_C", "e44d24e8ac9e2610e3d1a7bf66d4dd543033df370b9173a3c3f7272fa48d9adf"},
	{"b22_C2", "bef9cc89b4df88c0217bd0c4177c095ec4a4c02dfe6f8abd1b0ca3bdd71e7cd9"},
	{"cordic", "496b3015572ac6e3adccb6a2421a3edb287f76248311d425d8985adee5996dcf"},
	{"cps", "860cb9d51619bbf373a5e517302ce29465d4202a9280ded30ba3c0bb0406609b"},
	{"dalu", "e87b5ff7b48c09cd145f6f484f71913353a83a6b5f6c04a4b0a9cfe0cc7e4266"},
	{"dec", "2b4b336280c038cfb133001aa103cf0712bd51488f1542789e349f5c43a93160"},
	{"des", "02a09d614eb8c88cace37a8242bb3cb1bb9d651a40c94d71228ef082b4cfcceb"},
	{"e64", "17e72cfae4abd95b28049324ff79bd58ceffbfad577c50aaa84002d67fbddde3"},
	{"ex1010", "f05d385099dde8456b9b96a2f8389f1ff50d8c5266645cd88fc2b99f0ba805f9"},
	{"ex5p", "517e60434b64c9ebf3fd64afaa33d31ad3aedf86616253a74de3cf148cc18e86"},
	{"i10", "8cf6239f7bd5ebb98dc601deb095801af0c502668a4e28a607c8267bb5a71a7f"},
	{"k2", "b620ce776d34cc72462d3f694f7c20b201eb43e54a81ee24e59ea262481fed68"},
	{"log2", "8e41ca9eacc0c18b610c9ebec18dee45dd2a4bb25fb722c3c034623cc6067ea6"},
	{"m_ctrl", "2682b0e737f20a81da89c3d8da156ffd5dda0269af06368285584f16e0feaed7"},
	{"misex3", "f48de3a74e9dc1a46f0b8737887e13805b11f3b4205931691a524c20857e32bf"},
	{"misex3c", "edd00051f4e62046c4a9879c7af8075dd2692477ff6d49232e18a9776638fa08"},
	{"pdc", "f8d51b71f39bd5dfb65070bce5adf2511b4e3408e491741a929c275341d908fd"},
	{"priority", "3fa0be5ccb0d6b77905822e2a3a357e3974d9b71e9004d888dc72b5e6ffb1eeb"},
	{"seq", "8750a19b08f3342650e75fa7a49dc9a1e34780a9c7da1ef12865b533031328d7"},
	{"sin", "32da847ac12579751b996e832d1fb68fc0e663aed27217249353c43fc5963842"},
	{"spla", "0489493f2454a543077fca63345df60f7fecedd444fbc64692042ab540667e9a"},
	{"square", "fab4477b54a58935f3dd7d86abbc28f45714c2a68455b21d81ef0535a32eb7b3"},
	{"table3", "8c4b0add340f52a546fc03f144467f48955eeac81c57cc3f6b4f9696e7c2c156"},
	{"table5", "81604b0d304ae20076e9b1c3bc03553bbc5b653d1b87a045eff0b175c7455fdf"},
	{"voter", "9c49790708ee5aa2196c773feab64fc5a494cbab11aa4f18b45b3396d369620d"},
	{"alu4_x15", "a9d37b0ccbcf4e67cb4d8298a02d35d650ef9f5acbffa441f9fd72cf562f2ca3"},
	{"square_x7", "c0863234ea9cee5c8b4ba73d7f535378b98c594c3a895d7402f39f70ad0b6ca5"},
	{"arbiter_x15", "8e0891c78d37540903978d950a606be409e2a32c02c1dcabd7f5b1b3c11a89d9"},
	{"b15_C2_x8", "e3194d54bf8ae1e192a6f1d3496ac878a32f8a0eb926e5181fa15c3ce4e7d30b"},
	{"b17_C_x5", "e67e65e3edc35279760016f4f8b2944df7ab37153fd3cc3c0d814d981d6cedc6"},
	{"b17_C2_x5", "056ee79440ce125b8d798b67f03bd9a8833c677447b04410e59549e38afaef32"},
	{"b20_C2_x8", "ce714b91290f9ac6813485469b3794a5e7732b5bddd85fadafd0919545a5a03a"},
	{"b21_C2_x8", "587f2cbbf19d1f5a5f734ab5bc130df24b949c1bd9180fb1849527fd81d9ebbb"},
	{"b22_C_x6", "7397d0cb6088b9b29287e67b9ebcc3d6d89a657cc11244c13bd4ebfae0a6d345"},
}

// mapGoldenAll is the sha256 of the 51 raw digests above, concatenated in
// table order.
const mapGoldenAll = "7b75e4a6b3b2229183a970ff20e972b37fe9ea4d65df9d8d65a4fe153ea9df4a"

// TestMapGolden pins the mapper's output byte for byte on every circuit
// the experiments map: which cut each node keeps, in which order its
// leaves become LUT fanins, and every LUT's truth table. Any change to
// cut enumeration, dedup, the (depth, flow, leaf count) sort and its tie
// order, or the cut function shows up here.
func TestMapGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("maps 51 networks")
	}
	var graphs []*aig.Graph
	for _, b := range genbench.Registry() {
		graphs = append(graphs, b.Build())
	}
	for _, sb := range experiments.ScaledSet {
		b, ok := genbench.ByName(sb.Name)
		if !ok {
			t.Fatalf("unknown benchmark %s", sb.Name)
		}
		graphs = append(graphs, genbench.PutOnTop(b.Build(), sb.Copies))
	}
	if len(graphs) != len(mapGolden) {
		t.Fatalf("%d networks, golden has %d", len(graphs), len(mapGolden))
	}
	all := sha256.New()
	for i, g := range graphs {
		net, err := mapper.Map(g, mapper.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", mapGolden[i].name, err)
		}
		var buf bytes.Buffer
		if err := blif.Write(&buf, net); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		all.Write(sum[:])
		if got := hex.EncodeToString(sum[:]); got != mapGolden[i].sha {
			t.Errorf("%s: mapped BLIF hash %s, want %s (%d LUTs)", mapGolden[i].name, got, mapGolden[i].sha, net.NumLUTs())
		}
	}
	if got := fmt.Sprintf("%x", all.Sum(nil)); got != mapGoldenAll {
		t.Errorf("combined hash %s, want %s", got, mapGoldenAll)
	}
}
