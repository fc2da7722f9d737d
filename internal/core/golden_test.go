package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/testutil"
)

// goldenQuadrants are the data-management policies the golden digests
// cover: every quadrant, both QD3 index plans and QD4's feature-parallel
// full copy.
var goldenQuadrants = []struct {
	name string
	cfg  Config
}{
	{"QD1", Config{Quadrant: QD1}},
	{"QD2", Config{Quadrant: QD2}},
	{"QD3-hybrid", Config{Quadrant: QD3}},
	{"QD3-colwise", Config{Quadrant: QD3, ColumnIndex: IndexColumnWise}},
	{"QD4", Config{Quadrant: QD4}},
	{"QD4-fullcopy", Config{Quadrant: QD4, FullCopy: true}},
}

// goldenTraining pins, per (quadrant, layers, classes, workers), the
// SHA-256 of the trained forest's encoded bytes and of every phase's
// communication volume by collective kind. Layers 2 makes the root the
// last split layer. Any change to the training loop that moves a split,
// a leaf weight or a charged byte shows up here.
var goldenTraining = map[string][2]string{
	"QD1/L2/c2/W1":          {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "845d8b92722a0500a6159f6e974c99a83b87c50b939f324e30f284e5c17a98e3"},
	"QD1/L2/c2/W3":          {"b9dd4afe2937295674c058edc31ab59f0214f2891f49d11ad44cdee2f91e2182", "3c5d00bbd2cf7717b0d1d617ca5ccf22a315b1bdee1915c2eee50bf617d65df6"},
	"QD1/L2/c2/W4":          {"29f6102d3d0651a50eb29040ace4c4d4286d3c670f948ec6a0125db697f05af9", "a752455e87a4b194f980dae83ab73218f8f48931f070dc5341c45344f419e4a7"},
	"QD1/L2/c3/W1":          {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "fa585d89e86215a06cb69ae5cba98073aca74e9940274116fb6dbaebf9d6d6ae"},
	"QD1/L2/c3/W3":          {"67a1a0efa8322fb8e47e7215f3086ad6add5662d8f19a99de7dadaddfb162838", "9a98ecd738d06bbd4b535cc150ce701380f606c59454bc2c236624babe901e5c"},
	"QD1/L2/c3/W4":          {"53b840849598b64b20ef84f056475212b8f418751609d25e3c91c5f369e4b077", "af00e3e3d9bfb4d6928ce2f76c1b670364309f75c6280e861293b12a24d1ee06"},
	"QD1/L3/c2/W1":          {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "845d8b92722a0500a6159f6e974c99a83b87c50b939f324e30f284e5c17a98e3"},
	"QD1/L3/c2/W3":          {"736cedff53f918cd76562db1b931f72aa7215c67caba332f70fe90ea900bc5c4", "a31cab75899e2253ef10a020f0e3cce711d57e3900d94fe8464da6f8584ef0c9"},
	"QD1/L3/c2/W4":          {"d2f2be2c64ec80249a33a68b64fe713df57b9c097f90c351d343df658c89b2f0", "45f06e5759bf3b330ab92ec28f36f0c3ad52cdeb34e38d31e45f217926f3ce1a"},
	"QD1/L3/c3/W1":          {"29aa627b0cebedb7307a3eb087524a9bbc227e803044cb94d9e91616abebcd40", "fa585d89e86215a06cb69ae5cba98073aca74e9940274116fb6dbaebf9d6d6ae"},
	"QD1/L3/c3/W3":          {"70b90eb94d07ce5635eb2d2ea9f3d8fde3c8dcf0df7229ed6838e50e291f718c", "7c1b2d65c9ad12f2065da85e983b68cb84a8df3cae2f73da2a0554eab4a60e87"},
	"QD1/L3/c3/W4":          {"b499ec0397564f89b56b4876034a487ca0ded311f7a332853b71cc465d72cbb7", "db1c82f3b6343d21c04d2ce4054ed7dab349c021bf85deada2abdad58af1dc0f"},
	"QD1/L7/c2/W1":          {"73fb417dc806a571000b858bf65e822ee9a01afc976f7d14891f818f03e25617", "845d8b92722a0500a6159f6e974c99a83b87c50b939f324e30f284e5c17a98e3"},
	"QD1/L7/c2/W3":          {"d208fb86350c8370e058387407427e20ba871f25165a8a9c6f1a93d5f63d16e8", "cff7351931db8609cc197e6c1e5e2616b4a52f355b2db1464302c129f2a81fda"},
	"QD1/L7/c2/W4":          {"5a6f337da34c2568ff93fd8b4880124c3d14118c0b1712e84ae12e5c4103b6f3", "576bc368f417d7875d1bf709da481d6779846e7dc073384834c4d5e6230d5a5d"},
	"QD1/L7/c3/W1":          {"2d2837b483d8e74461134d11331b1ccfb4835ec6c94214d14ce3a865722687c7", "fa585d89e86215a06cb69ae5cba98073aca74e9940274116fb6dbaebf9d6d6ae"},
	"QD1/L7/c3/W3":          {"d383b18126e8c0cac27b7d00e5746f9cad299e4daed69121fc54acc398a5d5f1", "9baf7f9a91f46e5d08afb2df0de3bd657ac36593e7fc4bbafeb815aed863cfda"},
	"QD1/L7/c3/W4":          {"1c2fdb8827a0b228ebeb9a74972af881416e27a4ef47d69dee5789c86931a47a", "19f6c95cc819a8014dbcf035d35c4a2c76ca90e4bed15645a0ac9eb045afb060"},
	"QD2/L2/c2/W1":          {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "845d8b92722a0500a6159f6e974c99a83b87c50b939f324e30f284e5c17a98e3"},
	"QD2/L2/c2/W3":          {"b9dd4afe2937295674c058edc31ab59f0214f2891f49d11ad44cdee2f91e2182", "3c5d00bbd2cf7717b0d1d617ca5ccf22a315b1bdee1915c2eee50bf617d65df6"},
	"QD2/L2/c2/W4":          {"29f6102d3d0651a50eb29040ace4c4d4286d3c670f948ec6a0125db697f05af9", "a752455e87a4b194f980dae83ab73218f8f48931f070dc5341c45344f419e4a7"},
	"QD2/L2/c3/W1":          {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "fa585d89e86215a06cb69ae5cba98073aca74e9940274116fb6dbaebf9d6d6ae"},
	"QD2/L2/c3/W3":          {"67a1a0efa8322fb8e47e7215f3086ad6add5662d8f19a99de7dadaddfb162838", "9a98ecd738d06bbd4b535cc150ce701380f606c59454bc2c236624babe901e5c"},
	"QD2/L2/c3/W4":          {"53b840849598b64b20ef84f056475212b8f418751609d25e3c91c5f369e4b077", "af00e3e3d9bfb4d6928ce2f76c1b670364309f75c6280e861293b12a24d1ee06"},
	"QD2/L3/c2/W1":          {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "845d8b92722a0500a6159f6e974c99a83b87c50b939f324e30f284e5c17a98e3"},
	"QD2/L3/c2/W3":          {"736cedff53f918cd76562db1b931f72aa7215c67caba332f70fe90ea900bc5c4", "912d2d11dfe461070ae7e350ac2ccd05912be80e3db096c4b9378ffa49c8d451"},
	"QD2/L3/c2/W4":          {"d2f2be2c64ec80249a33a68b64fe713df57b9c097f90c351d343df658c89b2f0", "5c47cb44c57abb671e39299ef1da2ad0be25b5b62f3b6f3f5ba6a874b1834019"},
	"QD2/L3/c3/W1":          {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "fa585d89e86215a06cb69ae5cba98073aca74e9940274116fb6dbaebf9d6d6ae"},
	"QD2/L3/c3/W3":          {"80ce33e42e5035a7ef3bf386fa0aef437ee144084953a1c05c403657d8057cd1", "fb894b9463ca1d7c7bf3f589bc5b20067a401e7d085bd238c080a521a36fed9c"},
	"QD2/L3/c3/W4":          {"b499ec0397564f89b56b4876034a487ca0ded311f7a332853b71cc465d72cbb7", "2fbffc24c7cf6098a08d2731970f969c8b3abdb143c73ba7107d9b604b531af4"},
	"QD2/L7/c2/W1":          {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "845d8b92722a0500a6159f6e974c99a83b87c50b939f324e30f284e5c17a98e3"},
	"QD2/L7/c2/W3":          {"2edaf2e8808420faedaec55bb14c2eadf24729e54402d1c43fb7f4db39d89bb6", "1180cd70f3d03308485d8a25d7937a9449b4ae3bca449b641000d6e00a3de753"},
	"QD2/L7/c2/W4":          {"7013510c37d48865eed3669dc323ee9002a0d8b8231108c1715694b44091679f", "ebc6f3d1a1ede0617216a0cd0b9f2890b0ec1d0a319e6524b19f3f3c0e3da420"},
	"QD2/L7/c3/W1":          {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "fa585d89e86215a06cb69ae5cba98073aca74e9940274116fb6dbaebf9d6d6ae"},
	"QD2/L7/c3/W3":          {"f87c062eb4877509a80bf44a57af7e0d50b4326621e5fa951073ff2f3fcab2b2", "c6b594a8fcdeda4a95d5c3eeba26cb4d43edd23ab7a3d999d1aff47d1dff75a5"},
	"QD2/L7/c3/W4":          {"c9c7d07b8ba1c34f03a63f391a693412ab0664552e78a75cc14d1b6ea121c812", "25a1e04744e3cfefd04b0fac156d4f90895d7cb76eefedef185550e5fa244574"},
	"QD3-hybrid/L2/c2/W1":   {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "1bc16639fee526fbd46529134182913fbd390a8910477a8eb9dc85be65999d2f"},
	"QD3-hybrid/L2/c2/W3":   {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "66408b3376791bb41682d4985c24f2e36ebbb39b29e6c954edc6df0d9ee55fe0"},
	"QD3-hybrid/L2/c2/W4":   {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "0dd27813fd6f1f72573ed479406b0cd767c2936fcbef338c3d5cd2eb3524364d"},
	"QD3-hybrid/L2/c3/W1":   {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "2b17e8c9cb0df434e47edb7846b251bd286593013fab4b096ffa1643da518003"},
	"QD3-hybrid/L2/c3/W3":   {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "9ef181de6582c277bed0faf4c67f86df6e52cda0be4d32aacd7bac407edc7168"},
	"QD3-hybrid/L2/c3/W4":   {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "02d88e9b6fc917f0f0505a28cef9bc9d6873fa7dec2c388592f7816dd8cc1566"},
	"QD3-hybrid/L3/c2/W1":   {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "1bc16639fee526fbd46529134182913fbd390a8910477a8eb9dc85be65999d2f"},
	"QD3-hybrid/L3/c2/W3":   {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "7fa7557fa727484c0c422ea95c20f1fdbb4cbfe476a45a7b42a6400371a0c5ab"},
	"QD3-hybrid/L3/c2/W4":   {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "87da62ad87e4b9b0e9c449732848d8115ac8a55cd53e016b7116fd5b704af094"},
	"QD3-hybrid/L3/c3/W1":   {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "2b17e8c9cb0df434e47edb7846b251bd286593013fab4b096ffa1643da518003"},
	"QD3-hybrid/L3/c3/W3":   {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "0682efeeec1931118ceaaac064eafb4f021652c5cafea36050ab2324fe67a122"},
	"QD3-hybrid/L3/c3/W4":   {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "1b9621355dc11bfbd6795b1c829987826af2aa8f952adcafb2784d6c2524c5c2"},
	"QD3-hybrid/L7/c2/W1":   {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "1bc16639fee526fbd46529134182913fbd390a8910477a8eb9dc85be65999d2f"},
	"QD3-hybrid/L7/c2/W3":   {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "b30f6b0458a456b1602bcd93870b3870ba84a141544e03b83c7041c301950d85"},
	"QD3-hybrid/L7/c2/W4":   {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "8bb25c84332e40a5efc5f3f7ba9356d4fb55d5c0480dfda60eb7bd7a4648ef7f"},
	"QD3-hybrid/L7/c3/W1":   {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "2b17e8c9cb0df434e47edb7846b251bd286593013fab4b096ffa1643da518003"},
	"QD3-hybrid/L7/c3/W3":   {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "f093224edcb208d1df17c87799b3870345871e0a6ef7319348af27e7e9b13113"},
	"QD3-hybrid/L7/c3/W4":   {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "2d8e0aede35ca8ba39928378c38c8f4af3c2bb02aaeef5a1703a032d85d01393"},
	"QD3-colwise/L2/c2/W1":  {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "1bc16639fee526fbd46529134182913fbd390a8910477a8eb9dc85be65999d2f"},
	"QD3-colwise/L2/c2/W3":  {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "66408b3376791bb41682d4985c24f2e36ebbb39b29e6c954edc6df0d9ee55fe0"},
	"QD3-colwise/L2/c2/W4":  {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "0dd27813fd6f1f72573ed479406b0cd767c2936fcbef338c3d5cd2eb3524364d"},
	"QD3-colwise/L2/c3/W1":  {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "2b17e8c9cb0df434e47edb7846b251bd286593013fab4b096ffa1643da518003"},
	"QD3-colwise/L2/c3/W3":  {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "9ef181de6582c277bed0faf4c67f86df6e52cda0be4d32aacd7bac407edc7168"},
	"QD3-colwise/L2/c3/W4":  {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "02d88e9b6fc917f0f0505a28cef9bc9d6873fa7dec2c388592f7816dd8cc1566"},
	"QD3-colwise/L3/c2/W1":  {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "1bc16639fee526fbd46529134182913fbd390a8910477a8eb9dc85be65999d2f"},
	"QD3-colwise/L3/c2/W3":  {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "7fa7557fa727484c0c422ea95c20f1fdbb4cbfe476a45a7b42a6400371a0c5ab"},
	"QD3-colwise/L3/c2/W4":  {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "87da62ad87e4b9b0e9c449732848d8115ac8a55cd53e016b7116fd5b704af094"},
	"QD3-colwise/L3/c3/W1":  {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "2b17e8c9cb0df434e47edb7846b251bd286593013fab4b096ffa1643da518003"},
	"QD3-colwise/L3/c3/W3":  {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "0682efeeec1931118ceaaac064eafb4f021652c5cafea36050ab2324fe67a122"},
	"QD3-colwise/L3/c3/W4":  {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "1b9621355dc11bfbd6795b1c829987826af2aa8f952adcafb2784d6c2524c5c2"},
	"QD3-colwise/L7/c2/W1":  {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "1bc16639fee526fbd46529134182913fbd390a8910477a8eb9dc85be65999d2f"},
	"QD3-colwise/L7/c2/W3":  {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "b30f6b0458a456b1602bcd93870b3870ba84a141544e03b83c7041c301950d85"},
	"QD3-colwise/L7/c2/W4":  {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "8bb25c84332e40a5efc5f3f7ba9356d4fb55d5c0480dfda60eb7bd7a4648ef7f"},
	"QD3-colwise/L7/c3/W1":  {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "2b17e8c9cb0df434e47edb7846b251bd286593013fab4b096ffa1643da518003"},
	"QD3-colwise/L7/c3/W3":  {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "f093224edcb208d1df17c87799b3870345871e0a6ef7319348af27e7e9b13113"},
	"QD3-colwise/L7/c3/W4":  {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "2d8e0aede35ca8ba39928378c38c8f4af3c2bb02aaeef5a1703a032d85d01393"},
	"QD4/L2/c2/W1":          {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "b7ae5e03d37175028badb95d08dfb3198c42c11ace2f6e8c5a1f479e8b4c8132"},
	"QD4/L2/c2/W3":          {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "3352a37c3c237526a9f0f07938703b7123d9ad10804566f6860799969302d37c"},
	"QD4/L2/c2/W4":          {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "559c9f23f9bb05e412a646e562baf421a1622a21924c563ba4427e506713669b"},
	"QD4/L2/c3/W1":          {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "9d031dd498099e90ab27de2f568f324aa4f4d6f6e04214780e9d16a32fefece2"},
	"QD4/L2/c3/W3":          {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "b71b8e5a1d5c8be3d6b63be43b73a522283d98f8b832df14c7deaef574dc7ed1"},
	"QD4/L2/c3/W4":          {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "0e77a23f8d82689ad7e760c066352d17fd7ddc990328d66c44cb3c225f414745"},
	"QD4/L3/c2/W1":          {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "b7ae5e03d37175028badb95d08dfb3198c42c11ace2f6e8c5a1f479e8b4c8132"},
	"QD4/L3/c2/W3":          {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "11e2f2ce4f4d132b2f0f795baa0e973cabc570f541ab6a08616cb9e878bd7b07"},
	"QD4/L3/c2/W4":          {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "a19ae97e4a688ac9e0c8c8cf9fd38e47c832a1ddffb154b85c5a4c788af5937c"},
	"QD4/L3/c3/W1":          {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "9d031dd498099e90ab27de2f568f324aa4f4d6f6e04214780e9d16a32fefece2"},
	"QD4/L3/c3/W3":          {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "cf138ab78a1be055fad00c5b8cb82611f802cfea1d1ce1b2f007b6d08229052f"},
	"QD4/L3/c3/W4":          {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "f4eb7dccd19bc55ed860540e2940ad59f7e20ed2dec0cbf23ac65ba27e3a530f"},
	"QD4/L7/c2/W1":          {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "b7ae5e03d37175028badb95d08dfb3198c42c11ace2f6e8c5a1f479e8b4c8132"},
	"QD4/L7/c2/W3":          {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "d3fa739fb7de062bf6db3ef88500ccb39fae7e0c105fd8de70d59348e90741b1"},
	"QD4/L7/c2/W4":          {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "6223d37e67d64e6aab60262184a84275084a7fcedbab7d33a7ecdd21819dea65"},
	"QD4/L7/c3/W1":          {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "9d031dd498099e90ab27de2f568f324aa4f4d6f6e04214780e9d16a32fefece2"},
	"QD4/L7/c3/W3":          {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "e9e533f3c299983b44b770f727fdf8af3ee8ed5cec1634db0954cd9707afa4bd"},
	"QD4/L7/c3/W4":          {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "2616a4b030d0a5d2f2d4071f1fe63db64f11e12ceeb3796139285abffc4e36cf"},
	"QD4-fullcopy/L2/c2/W1": {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "d1fcb9886dbf1b83e217f86af215a4a480a9437831996bf847bb5c9564466429"},
	"QD4-fullcopy/L2/c2/W3": {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "905fc1f88ca4a4bcffab8915eeeda2f894694a84f333640a8df09a1c6de61f10"},
	"QD4-fullcopy/L2/c2/W4": {"b15d7b7d74d4b88b97ebf76b291f2910404e173df4b7eb7f12e352b321bbe6fa", "4e8af115222d0dab09959ebac8fd6c68763207a8d4f6ea9c924fe90fe3f1b6ff"},
	"QD4-fullcopy/L2/c3/W1": {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "14489953f2da7e447c9aff29690f36e1ee86e255593de76fdaa8d0b996f1646c"},
	"QD4-fullcopy/L2/c3/W3": {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "7485216526906494d8de9d542839299e2b39f1aa23b823d51b6dc2fa76e012c6"},
	"QD4-fullcopy/L2/c3/W4": {"fa29eb98dabe8bb7e8c1b800ccd3649711c40289e4a152dc6950e48affcb59be", "1a467deb3ed26c91f338339d775aca532fbc5faadc4dfa047aa1529555a05ae0"},
	"QD4-fullcopy/L3/c2/W1": {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "d1fcb9886dbf1b83e217f86af215a4a480a9437831996bf847bb5c9564466429"},
	"QD4-fullcopy/L3/c2/W3": {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "2cbbd4a160e253323746e8d1ecbce7259a9bf6b36adb02657c4eb93e50e8d37d"},
	"QD4-fullcopy/L3/c2/W4": {"b66e98ea83be1c32118e26d6e8f6bcdd2e1626fb3ae21925ff31219037efb6e1", "f0c9f825bc680477b6ac7524459d658f0bb867449bd510a922fdc05a4a4bd912"},
	"QD4-fullcopy/L3/c3/W1": {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "14489953f2da7e447c9aff29690f36e1ee86e255593de76fdaa8d0b996f1646c"},
	"QD4-fullcopy/L3/c3/W3": {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "379767fc2e16c874a7b7938eb0319af137d3224fe7d19a291a54889714143ab2"},
	"QD4-fullcopy/L3/c3/W4": {"472e7db25cae2b43e00c3288aae9feb613cf6efe93736e7e4473341adbbde343", "aedfa3bd1269e9362fd33dd5f679d7cf527f79abf7c9fed3a12c13f318a6dd35"},
	"QD4-fullcopy/L7/c2/W1": {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "d1fcb9886dbf1b83e217f86af215a4a480a9437831996bf847bb5c9564466429"},
	"QD4-fullcopy/L7/c2/W3": {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "44c4f5133b95b0f1b821a700d1a871410899a7a627ef8fefd125b8812b34c865"},
	"QD4-fullcopy/L7/c2/W4": {"ee67a35b88a69237acdf29fdb3ea80cbd072e9c1e97bb2a637fefe5c4424559c", "7405c2ca5e4d647e6a5a323275fe97f8ba421806fc04b48503a98136757ecbc4"},
	"QD4-fullcopy/L7/c3/W1": {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "14489953f2da7e447c9aff29690f36e1ee86e255593de76fdaa8d0b996f1646c"},
	"QD4-fullcopy/L7/c3/W3": {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "940272a3585a5f1ffb5ba1ccdee161ac2dbecad3f3d5177f2f6da6667fffacbe"},
	"QD4-fullcopy/L7/c3/W4": {"b65682367d0ba37b7e07575536c1c2ae3fd687719d061d4c87be71c8150e9c13", "98da5233d42b1896192a310e597b4d2b6df05e42f43df9f2481ac3812789a83d"},
}

// phaseBytesDigest hashes every phase's name and its bytes by collective
// kind, in sorted phase order.
func phaseBytesDigest(cl *cluster.Cluster) string {
	h := sha256.New()
	st := cl.Stats()
	for _, p := range st.PhaseNames() {
		h.Write([]byte(p))
		h.Write([]byte{0})
		for _, b := range st.Phase(p).Bytes {
			binary.Write(h, binary.LittleEndian, b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainingGolden trains every golden shape and compares the model and
// per-phase byte digests against the pinned values.
func TestTrainingGolden(t *testing.T) {
	data := map[int]*datasets.Dataset{
		2: testutil.Binary(t, 700, 24, 0.4, 7),
		3: testutil.Multi(t, 700, 24, 3, 0.4, 7),
	}
	for _, q := range goldenQuadrants {
		for _, layers := range []int{2, 3, 7} {
			for _, c := range []int{2, 3} {
				for _, w := range []int{1, 3, 4} {
					name := fmt.Sprintf("%s/L%d/c%d/W%d", q.name, layers, c, w)
					cfg := q.cfg
					cfg.Trees, cfg.Layers, cfg.Splits = 2, layers, 16
					cl := cluster.New(w, cluster.Gigabit())
					res, err := Train(cl, data[c], cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					enc, err := res.Forest.Encode()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					sum := sha256.Sum256(enc)
					got := [2]string{hex.EncodeToString(sum[:]), phaseBytesDigest(cl)}
					want, ok := goldenTraining[name]
					if !ok {
						t.Errorf("%s: no golden digest (got {%q, %q})", name, got[0], got[1])
						continue
					}
					if got[0] != want[0] {
						t.Errorf("%s: model digest %s, want %s", name, got[0], want[0])
					}
					if got[1] != want[1] {
						t.Errorf("%s: phase bytes digest %s, want %s", name, got[1], want[1])
					}
				}
			}
		}
	}
}
