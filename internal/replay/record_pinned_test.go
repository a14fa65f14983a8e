package replay_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/mir"
	"conair/internal/replay"
)

// recordingHash is the hex SHA-256 of a recording's decision stream and
// fingerprint: every segment (tid, n), then every Intn draw, as
// little-endian words, then the fingerprint's %+v form.
func recordingHash(rec *replay.Recording) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	word(int64(len(rec.Segments)))
	for _, s := range rec.Segments {
		word(int64(s.TID))
		word(s.N)
	}
	word(int64(len(rec.Intns)))
	for _, v := range rec.Intns {
		word(v)
	}
	fmt.Fprintf(h, "%+v", rec.Fingerprint)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCaptureRecordingsPinned pins what replay.Record captures: the
// segment stream, the Intn draws and the fingerprint of 81 recordings,
// hashed against values taken when recording still went through a
// separate wrapper on the scheduler's interface path. The flight recorder
// that records today must produce exactly the same streams.
func TestCaptureRecordingsPinned(t *testing.T) {
	want := map[string]string{
		"FFT/fix/1":                "7d72b30fad91dc05fc2011ea7fdf6206bb9f21dd0e930143ddb1fd00bb775e7c",
		"FFT/fix/2":                "b2210db44f7496e81fd761f762e706422159ed764596ea3be1b672f260dd2578",
		"FFT/fix/3":                "ef47b6620babce4bd31b9cb80f3a75b604d6f319f39520fa62577635e2d0323d",
		"FFT/survival/1":           "baf068e766e982a9a0170726bf3e15012909bcd86138128cbddb1046cf930cfb",
		"FFT/survival/2":           "6d14bc1520fa57da11766ee2c85cbf0358a37b53bb31e24aeecff13079f53415",
		"FFT/survival/3":           "42b4083a76737d4c16eaef9558af119ee54319587d558630824f06813482561b",
		"HTTrack/fix/1":            "637b42be36e6125763be24aa372688e27404bff8096282ad7b335c254224cffb",
		"HTTrack/fix/2":            "140ee7e693dfc8e977442c440f455cbe3989ad7519e0b99c804a6b8cf2c4a923",
		"HTTrack/fix/3":            "935f9066ffbe0a62f463c61b85318c1e4174edd177d74b4688a4d1f76a75ca92",
		"HTTrack/survival/1":       "8952b5eafaec0cb14b643735a8c11032320683fc89abfefd56eb8f0a6d784a52",
		"HTTrack/survival/2":       "d9bb9b455fa55e17c83d6afbd1edf1a3ca8aaaf1d5feb450adbb102446386269",
		"HTTrack/survival/3":       "08e27848c41ddef49675380300727f15986e8f98d77cf6a95a93a0949ba6865e",
		"HawkNL/fix/1":             "ff36fcb59084fe6d2ae44d319043750e246863ab79616fd33aef70d00359c6ae",
		"HawkNL/fix/2":             "a0914b71cf2d2b1b80db95c09c356b765af18d08aeb545b7ea48cdc07bd32f31",
		"HawkNL/fix/3":             "55f2a2d9a2f305c5e28c8976ac8e0881ef2f6ae645e1462251daddbc3359d41e",
		"HawkNL/survival/1":        "68361a0c206ade353916330a15cc07631417ff4e2f8553bbc463b47b1bffa09b",
		"HawkNL/survival/2":        "3d744d112b02142f7fb5a3d2187d03ca6426b06c67ea069ed59f4b0908c6b99d",
		"HawkNL/survival/3":        "3c6c824bb304760975e47d870003dc141ac6d496b2e1e148edbda390fbe493a7",
		"LGCompletion/fix/1":       "7e83172d4340cacbe1c7c99669f2b3ed7c9dda2ebb7b45f03b21f101440c400f",
		"LGCompletion/fix/2":       "4ebc333e18bae8a230c0776ca92a584dbea9b53578d2c73c1d3ff2f9dece7b35",
		"LGCompletion/fix/3":       "3a4dff036edd24b1ecdd6b253cf4016231b8993ca450848e217c122b4883c76e",
		"LGCompletion/survival/1":  "8b5ff2453003e3440b8987a519bff7d1932b0b9b7102bfce6aeb4989892ad852",
		"LGCompletion/survival/2":  "0b941634ae7698d7e3cca36fd4f7f13d6373740d4f469e29ff1c23df1fe9b5d3",
		"LGCompletion/survival/3":  "c10ecef1fd44dd3f25825a411880adb0826f44e996d0d061b0e330e852b7129b",
		"LGFrontier/fix/1":         "c271f3febf0f3632f2ee1cf5f2c26b05f3a62577f49318d103f54c957fbf9316",
		"LGFrontier/fix/2":         "e3e10854b2fe91ff83cf66a6b65c1add0f68d1e872721edb142d55094dc9792f",
		"LGFrontier/fix/3":         "9d89cf37b6b6e37d659cfe0f3bb147c7734dab4629d0f8fccd9bff9668ca73d8",
		"LGFrontier/survival/1":    "94e2dcfdc7bd83f99aaf669f3e4e09b5fbc5a7619461873c84408a96c555315a",
		"LGFrontier/survival/2":    "9997cc071d599efd0f88c8265085c40f31a3bc87be76bb3e0499b64921b2743f",
		"LGFrontier/survival/3":    "eff28776f21242c6e0fca01db3a7bf1d1d8df7ae68bf7f052de378c5e5143088",
		"LGResults/fix/1":          "f91bc6d045a1ba7ea054137341d8c7b2a0e2e3e818b446df92fdae47bb49295f",
		"LGResults/fix/2":          "a819938311061c33107a39a4499ebb20d49ceba5568e7e062ba0092aaff28476",
		"LGResults/fix/3":          "c7d4f0881e2486f21e47bc2694ccfb961a3a4088cc9089da03397c7f5224a37a",
		"LGResults/survival/1":     "25e6872d96dd82f68b45fdacae945d18e46d53ef18fefcb6831390f509aa9726",
		"LGResults/survival/2":     "fe0ae16d4f07df6694d8fc6851766274bfdbbc9373f4cc7a874d53e8e601165f",
		"LGResults/survival/3":     "0a5aa48a557222504a03f61a678eb1808cc1a5fd41a161e6f9bf24cce167d8c9",
		"MozillaJS/fix/1":          "0b4bdceed9de13c392dacb578108530a121435f5d30c7dfb603279855ce9b51c",
		"MozillaJS/fix/2":          "903831034b0c40704bc3cc3270bfa1a30cfc7b2913371930f4a571d6236c2dbc",
		"MozillaJS/fix/3":          "20a9471c736c52127aa2a015c59e56cb8a0ce61eaf89ba31ef77d6d370eef7a6",
		"MozillaJS/survival/1":     "ec6ea11c450601759864a0eddc10d02ebf93f8daa768d5d8e1f8db6f25c1a1e6",
		"MozillaJS/survival/2":     "f034acc5248720f60dba1d7826ff0f0b4ed4098d74c090c183c46ab4221d8e52",
		"MozillaJS/survival/3":     "17b6c4d9808e22ddf10bbbf39268e4fdd0c54c04d4e842d66580895571a2b22d",
		"MozillaXP/fix/1":          "23efc24d996d4f623a06276e15a62fd8c5ea6051d3b1f4f63a591a79fe1eaa00",
		"MozillaXP/fix/2":          "a5c7dcbb3b18376cfaac86e8b7d4f4a172a38029b889efee1013aaa8af755671",
		"MozillaXP/fix/3":          "eef0276de8f9db4b4ca74695e2bfdf2ce06765b4e8f2179c353a22c9ffe8a450",
		"MozillaXP/survival/1":     "3985e7c853f38af46c875064e07304827b06b5d909dd8e421f577e9cc11c9ca3",
		"MozillaXP/survival/2":     "e251f08bccb2ec07e0d6fcb1010a23681d2c43fda65934fdac5d4f62096a87e3",
		"MozillaXP/survival/3":     "595f2f69c195953342c91d3db25f13402d085699e00869ba9b3738319730280c",
		"MySQL1/fix/1":             "3e648ea8b0d0086d75d183ae5fa2e72b63c7e7a069669d3991765139ccd0a13d",
		"MySQL1/fix/2":             "fbb6b06104973a4fc2144345b0e303ba78bb03d1bfdf6d16f1a1cb1ff4302dce",
		"MySQL1/fix/3":             "55d09580ff28607601ba64be2846585a662423e3d4364eca6d4f767a2d362767",
		"MySQL1/survival/1":        "900c6ad1180bfe75360f55097fdaf8a5b8f85385361132f24e2c0a1c1fa52f26",
		"MySQL1/survival/2":        "a39b83c8bae3c09beac6b3f42a767b5cecbee27f36a31306accb71742b803e36",
		"MySQL1/survival/3":        "655fa1c0a4bea26c7c936e781cbe5cf54141922bd2576690b6db9a33479727f4",
		"MySQL2/fix/1":             "467f02dffc197cfd4118f450b88376b6d2266b98faf24b42b3c04d3b49fd314f",
		"MySQL2/fix/2":             "87b5f5542b6397469c3741e51729909726577df860f6fb0272bf8c1cfc8b9464",
		"MySQL2/fix/3":             "a107a847ac1f6f2623f73e82aff41f3f8a2ea155336f8d610b4957f90a2f30ab",
		"MySQL2/survival/1":        "79eaffac4e4eb1d568f65816a786fbebbdfae73c16688d537fae78dcb611a13b",
		"MySQL2/survival/2":        "7d8a254358448a0e42034ab74d949a8d01eb488a1ce7c8d755410beaac7a4122",
		"MySQL2/survival/3":        "45c292e8fa4f08d1bfea0e898580c943fe3583b193cf613d24e743c01966502b",
		"SQLite/fix/1":             "1f2228c032bbea42d2522a520ca839f9fd7d3cb2440062ad6fe8762f120115c5",
		"SQLite/fix/2":             "b241d4cb2902eb5c197c9c7aeebde53c9aa4dcbb10e4ed9daefbb7819019e872",
		"SQLite/fix/3":             "36b76d05fa5a6061f30fa21343b328873288aedb94cf1907888e14aaf89c9eb7",
		"SQLite/survival/1":        "1956559033c20860c0e76736fb18f4b0c2d964b7a18648b6bc77357bc95766f6",
		"SQLite/survival/2":        "4a9657a981c13a070a9bc2d1c7fd22535bd716416c3f75cb7315e0a303e90845",
		"SQLite/survival/3":        "16b7c79e746b49549adce2ddf707e6859aec3406079d97dd5d6b23b675c88d4c",
		"Transmission/fix/1":       "faa8e0c21b787af624e91c1dca2abcf6f7bd3558509aac0ea20506e0bf2a48a0",
		"Transmission/fix/2":       "dbd0cae3bea7a8b9c73ab3962154fd6d4ac4835da5b1368c4a6d145a6d88b997",
		"Transmission/fix/3":       "cf236fd85d266d2ea96ad31b7d39f13f45ab780af09ef98b00a1a2acc22a6d2e",
		"Transmission/survival/1":  "9027541a153ce89257fdb82d0d4920bc1d79c706dcab71f0b24226078b3a6bfe",
		"Transmission/survival/2":  "e6a6118e396e2c7fb44e18cf2c1a79b1e07fa7f5f0135fecb15057cb9e57558e",
		"Transmission/survival/3":  "742fba0ac89ce25402e638082587a692ff5e9784741031b267d9dd0e75b057ce",
		"ZSNES/fix/1":              "029f63976ba387a28006f403dd75523046f13ec4eb7f4e5e7dd10818827869cf",
		"ZSNES/fix/2":              "02d224468355628ad381905581a6528f0d192c73d5310452bfcc128598059b73",
		"ZSNES/fix/3":              "989a94be7873d27926f87d6eac76120d566998030e8a7f39f541ced8817e3b1e",
		"ZSNES/survival/1":         "1860d76a1c617bb4ba46876a7c33797dec26e99af809dc6889d774b090ab8152",
		"ZSNES/survival/2":         "d249cab8186e49f53433802c29b8c0c8cf14b45cf86cac4d9742fc5ceb8ec2a3",
		"ZSNES/survival/3":         "23d99b92bd8668a561cd3654d11420cf363fdb3f07d014a0707a17ea0c20fe3c",
		"deadlock.mir/raw/1":       "d0b4fcfe91ea97ffbab04b8cceb0c08206fecd24291dc1e0e31561a3b1cf7319",
		"orderviolation.mir/raw/1": "91db85d27e9195cbcc8d28c1386567ceb3e6fd33961d7bf8e6b48929669d507c",
		"syncprims.mir/raw/1":      "0017a4a3af2768ede63c5e48260b28d83d2c8097579a1ac8935ed0ae1639c18b",
	}
	// Keys are "program/mode/seed": the forced light builds of the 13 bug
	// programs, survival- and fix-hardened, under seeds 1-3, and the
	// testdata programs under seed 1.
	got := map[string]string{}
	record := func(key string, mod *mir.Module, seed int64) {
		_, rec := replay.Record(mod, randCfg(seed), replay.Meta{Seed: seed})
		got[key] = recordingHash(rec)
	}
	for _, b := range append(bugs.All(), bugs.Corpus()...) {
		forced := b.Program(bugs.Config{Light: true, ForceBug: true})
		site, err := b.FixSite(forced)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, mode := range []struct {
			name string
			opts core.Options
		}{
			{"survival", core.DefaultOptions()},
			{"fix", core.FixOptions(site)},
		} {
			h, err := core.Harden(forced, mode.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, mode.name, err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				record(fmt.Sprintf("%s/%s/%d", b.Name, mode.name, seed), h.Module, seed)
			}
		}
	}
	files, err := filepath.Glob("../../testdata/*.mir")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		record(filepath.Base(f)+"/raw/1", m, 1)
	}

	if len(got) != len(want) {
		t.Fatalf("%d recordings, %d pinned hashes", len(got), len(want))
	}
	for key, h := range got {
		if h != want[key] {
			t.Errorf("%s: recording hash %s, want %s", key, h, want[key])
		}
	}
}
