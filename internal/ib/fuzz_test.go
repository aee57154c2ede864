package ib

import "testing"

// FuzzMAD: for any 64-byte SMP payload, each attribute codec decodes it,
// encodes the result into a fresh payload and decodes that to the same
// value, without panicking. Inputs of another length are cut or zero-padded
// to 64 bytes.
func FuzzMAD(f *testing.F) {
	var seed [64]byte
	f.Add(seed[:])
	NodeInfo{Type: NodeTypeSwitch, NumPorts: 8, GUID: 0xdeadbeef01020304, LocalPort: 5}.Encode(&seed)
	f.Add(seed[:])
	for i := range seed {
		seed[i] = 0xff
	}
	f.Add(seed[:])
	f.Fuzz(func(t *testing.T, in []byte) {
		var b [64]byte
		copy(b[:], in)
		madRoundTrip(t, "NodeInfo", &b, DecodeNodeInfo, NodeInfo.Encode)
		madRoundTrip(t, "PortInfo", &b, DecodePortInfo, PortInfo.Encode)
		madRoundTrip(t, "SwitchInfo", &b, DecodeSwitchInfo, SwitchInfo.Encode)
		madRoundTrip(t, "LFTBlock", &b, DecodeLFTBlock, LFTBlock.Encode)
	})
}

// madRoundTrip checks decode(encode(decode(b))) == decode(b) for one
// attribute codec.
func madRoundTrip[A comparable](t *testing.T, name string, b *[64]byte, decode func(*[64]byte) A, encode func(A, *[64]byte)) {
	t.Helper()
	first := decode(b)
	var out [64]byte
	encode(first, &out)
	if again := decode(&out); again != first {
		t.Errorf("%s: decoded %+v, re-encoded and decoded %+v", name, first, again)
	}
}
