package replay

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// FuzzReplayRead feeds arbitrary bytes to the trace decoders. Each input
// is decoded as a file (Read's format sniffing routes gzip to the binary
// decoder and everything else to NDJSON) and again wrapped in gzip, which
// hands the raw bytes to the binary decoder's record parser. Every input
// must return a trace or an error without panicking, and any trace a
// decoder accepts must pass Validate. The seed corpus in
// testdata/fuzz/FuzzReplayRead — a valid NDJSON trace, a valid binary
// trace with and without its gzip wrapper, and an NDJSON header forging a
// negative flow count — replays on every plain `go test`.
func FuzzReplayRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var zipped bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&zipped, gzip.NoCompression)
		zw.Write(data)
		zw.Close()
		for _, in := range [][]byte{data, zipped.Bytes()} {
			tr, err := read(bytes.NewReader(in), "fuzz")
			if err != nil {
				if tr != nil {
					t.Fatalf("decoder returned a trace alongside error %v", err)
				}
				continue
			}
			if tr == nil {
				t.Fatal("decoder returned neither a trace nor an error")
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("accepted trace fails Validate: %v", err)
			}
		}
	})
}
