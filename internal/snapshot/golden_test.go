package snapshot

// Byte-form goldens. The chunk and record bytes are what journals on
// disk, crash reports and every wire peer hold, and HWDigest and
// DigestRecord are computed over them, so a change to either is a
// protocol change. The round-trip tests cannot see one: an encoder
// that reordered fields would still decode its own output. These pin
// the bytes of real peripheral states, built on both target kinds.

import (
	"encoding/hex"
	"testing"

	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

// goldenOffset and goldenValue are the one register write that moves each peripheral
// off its power-on state.
const (
	goldenOffset = 0
	goldenValue  = 0xA5
)

// goldenDigests is the HWDigest hex of each corpus peripheral, keyed
// kind/target/phase.
var goldenDigests = map[string]string{
	"gpio/simulator/power-on":    "77d10147b28a644a4dcffe48d4aa3b56245e8dd1e592fbc742a57b21bc63d10e",
	"gpio/simulator/written":     "b7afac27fca0fa82d3616d122caef801d8422124587af16d8628f19cc525e86e",
	"gpio/scan-fpga/power-on":    "645554b1f2f5df2f5169e9f675d1013008ce54b5b40d3b8e8a72d3fa2af5f56f",
	"gpio/scan-fpga/written":     "192fa26f2a98e61693cb0462c8656af1d21c856255da52d66e2f42504583e731",
	"timer/simulator/power-on":   "025ecc5f875c082dc2d76810fd0c6321fcce40c9728ac183872cd678fbbc52e6",
	"timer/simulator/written":    "868cb3afbcc7019eefa089582f1cb14df9f53143084c1207feca8224888e794b",
	"timer/scan-fpga/power-on":   "0ffd76c5b346f73d0a3f8b79ac244ff0ab9b85750ad056708d20c7b213ccef82",
	"timer/scan-fpga/written":    "aaebe89dbeec7edb988db8ff7fc295fcdd1bc4e15398936aee0803a6045231bb",
	"crc32/simulator/power-on":   "fdcc2508dcd0ebdfec0bd7865fb4ffc3e17ff4d3cda4101bae4398d62f9aa910",
	"crc32/simulator/written":    "0512f6830ec78a18eb9f9dd0ac5045b47ee1861ccb891ab51f578762944c896c",
	"crc32/scan-fpga/power-on":   "1c61385e69ce790b58923460762aa9c618ca293cfde131bb33bb8b8ea256a482",
	"crc32/scan-fpga/written":    "36c28231c3e957f16eb643be31d22f9e6ed67d2de0d5a15de3a4d4cefb765d82",
	"uart/simulator/power-on":    "d1b85c704245033c15069c4364122e96faba6738082b0227a545e3931431ff48",
	"uart/simulator/written":     "c91b52d5c1f4034bf736ccbcf9a3eadf5023e1a42c257845b7eb3209c0bb701f",
	"uart/scan-fpga/power-on":    "2c97a852d03f642b34fbe6875624db00e494dc0cc15c1e85c7fcecf2ebc3f9fb",
	"uart/scan-fpga/written":     "7fdd4a0300a790db653ed915d419a3a0543a4f221153bf205bb4ac0157ee2c7f",
	"spi/simulator/power-on":     "d79610cce26dd2a7d0292ebac0f4efcd0cdd58ff516638e3ae769f662d01df04",
	"spi/simulator/written":      "ea71b510e5a5748b14290da9ea03e2150e7b93fc12aaa5e56cadc4fd48bcf967",
	"spi/scan-fpga/power-on":     "544091c3081461be22a11eecb562ac86a1193a0b745a01ac8665bb9f48821ac4",
	"spi/scan-fpga/written":      "9a278207a2f6f15dc4d41346055a66ee0fa9a118971a6f99145da3a9c1b4e620",
	"aes128/simulator/power-on":  "23be8749cf6af5a31465545808e1bbaa9e20008cf6afb7c306514b93744d4451",
	"aes128/simulator/written":   "aecc6cd38da4f123f659f23e02a37576147d2c19d4f1b90baa4170446538b07c",
	"aes128/scan-fpga/power-on":  "cd232b553c0b098789fcf53fabe37dac9c3ff43e5b309b7c3773e630b87b6cc0",
	"aes128/scan-fpga/written":   "bf64f319433e0b7dad509769fd26d938edcb90126ce8311efdef396405531abd",
	"regfile/simulator/power-on": "58dcd983d793fe4259d5f5385cbf5050ccdff0ec2aca498d2f84905e5d1f291b",
	"regfile/simulator/written":  "c9f6d09111e1d3c48994993a1b1b94c566d37c5d891ae608af99e032a960059e",
	"regfile/scan-fpga/power-on": "1cbfb7cd2ea7339ea21635f6206a2e5640118cdc0b520f6d095366332a3ed090",
	"regfile/scan-fpga/written":  "3a716ae80da2b1120afac802f0370ba1b05155b7a78613658ca70e36a7a1de15",
}

// goldenGPIOChunk is the full chunk (length prefix and state bytes) of
// gpio on a simulator target at power-on.
const goldenGPIOChunk = "9a00000002000000030000006469720000000000000000030000006f7574000000000000000000000000070000000400" +
	"000061646472000000000000000003000000636c6b00000000000000000700000070696e735f696e0000000000000000" +
	"0300000072737400000000000000000300000073656c0000000000000000050000007764617461000000000000000003" +
	"00000077656e0000000000000000"

// goldenRecord is Encode of a gpio+uart record saved from a simulator
// target after the golden write to each, with IRQ edge levels
// {true, false}; goldenRecordDigest is its DigestRecord.
const (
	goldenRecord = "5253534803ca020000148b41ef02000000010002000000050000006770696f30b7afac27fca0fa82d3616d122caef801" +
		"d8422124587af16d8628f19cc525e86e019a00000002000000030000006469720000000000000000030000006f7574a5" +
		"0000000000000000000000070000000400000061646472000000000000000003000000636c6b00000000000000000700" +
		"000070696e735f696e00000000000000000300000072737400000000000000000300000073656c000000000000000005" +
		"0000007764617461a5000000000000000300000077656e0000000000000000050000007561727430c91b52d5c1f4034b" +
		"f736ccbcf9a3eadf5023e1a42c257845b7eb3209c0bb701f01ca0100000e000000070000006261756464697608000000" +
		"00000000040000006374726c00000000000000000600000066636f756e740000000000000000080000006f766572666c" +
		"6f770000000000000000040000007270747200000000000000000800000072785f61726d656400000000000000000700" +
		"000072785f6269747300000000000000000600000072785f636e7400000000000000000800000072785f736869667400" +
		"000000000000000800000072785f737461746500000000000000000700000074785f626974730a000000000000000600" +
		"000074785f636e7407000000000000000800000074785f73686966744a03000000000000040000007770747200000000" +
		"0000000001000000040000006669666f0800000000000000000000000000000000000000000000000000000000000000" +
		"000000000000000000000000000000000000000000000000000000000000000000000000070000000400000061646472" +
		"000000000000000003000000636c6b00000000000000000300000072737400000000000000000600000072785f70696e" +
		"00000000000000000300000073656c0000000000000000050000007764617461a5000000000000000300000077656e00" +
		"00000000000000"
	goldenRecordDigest = "c2d524366bb1a1e27d9e2616278de41c73ccab209e1a4bb1ea3937d15af6f92c"
)

func goldenTarget(t *testing.T, scan bool, cfgs ...target.PeriphConfig) *target.Target {
	t.Helper()
	var (
		tg  *target.Target
		err error
	)
	if scan {
		tg, err = target.NewFPGA("golden", &vtime.Clock{}, cfgs, false)
	} else {
		tg, err = target.NewSimulator("golden", &vtime.Clock{}, cfgs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

func goldenSave(t *testing.T, tg *target.Target) target.State {
	t.Helper()
	st, err := tg.Save()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func goldenPoke(t *testing.T, tg *target.Target, name string) {
	t.Helper()
	p, err := tg.Port(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteReg(goldenOffset, goldenValue); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenHWDigests(t *testing.T) {
	for _, kind := range []string{"gpio", "timer", "crc32", "uart", "spi", "aes128", "regfile"} {
		for _, scan := range []bool{false, true} {
			host := "simulator"
			if scan {
				host = "scan-fpga"
			}
			tg := goldenTarget(t, scan, target.PeriphConfig{Name: "p0", Periph: kind})
			for _, phase := range []string{"power-on", "written"} {
				if phase == "written" {
					goldenPoke(t, tg, "p0")
				}
				key := kind + "/" + host + "/" + phase
				got := HWDigest(goldenSave(t, tg).Get("p0"))
				if want := goldenDigests[key]; hex.EncodeToString(got[:]) != want {
					t.Errorf("%s: HWDigest %x, pinned %s", key, got, want)
				}
			}
		}
	}
}

func TestGoldenChunk(t *testing.T) {
	tg := goldenTarget(t, false, target.PeriphConfig{Name: "p0", Periph: "gpio"})
	if got := hex.EncodeToString(AppendChunk(nil, goldenSave(t, tg).Get("p0"))); got != goldenGPIOChunk {
		t.Errorf("gpio chunk\n got %s\nwant %s", got, goldenGPIOChunk)
	}
}

// TestGoldenRecord pins a two-peripheral record's bytes and content
// address, then decodes the pinned bytes and restores them onto fresh
// targets, each of which must save the pinned record back.
func TestGoldenRecord(t *testing.T) {
	cfgs := []target.PeriphConfig{{Name: "gpio0", Periph: "gpio"}, {Name: "uart0", Periph: "uart"}}
	tg := goldenTarget(t, false, cfgs...)
	for _, c := range cfgs {
		goldenPoke(t, tg, c.Name)
	}
	edges := []bool{true, false}
	rec := Record{HW: goldenSave(t, tg), IRQEdges: edges}
	data, _ := Encode(&rec)
	if got := hex.EncodeToString(data); got != goldenRecord {
		t.Errorf("record bytes\n got %s\nwant %s", got, goldenRecord)
	}
	if got := DigestRecord(&rec); hex.EncodeToString(got[:]) != goldenRecordDigest {
		t.Errorf("DigestRecord %x, pinned %s", got, goldenRecordDigest)
	}

	pinned, err := hex.DecodeString(goldenRecord)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(pinned)
	if err != nil {
		t.Fatal(err)
	}
	for _, how := range []string{"Restore", "AdoptState"} {
		fresh := goldenTarget(t, false, cfgs...)
		apply := fresh.Restore
		if how == "AdoptState" {
			apply = fresh.AdoptState
		}
		if err := apply(back.HW); err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		again, _ := Encode(&Record{HW: goldenSave(t, fresh), IRQEdges: edges})
		if hex.EncodeToString(again) != goldenRecord {
			t.Errorf("%s of the pinned record saves back\n%x", how, again)
		}
	}
}
