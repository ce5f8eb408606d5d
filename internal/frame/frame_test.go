package frame

import (
	"bytes"
	"errors"
	"testing"
)

func TestRoundTripComposes(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "AAAA", []byte("fir"), []byte("st")); err != nil {
		t.Fatal(err)
	}
	if err := Write(&buf, "BBBB"); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	a, err := Read(r, "AAAA")
	if err != nil || string(a) != "first" {
		t.Fatalf("frame A = %q, %v", a, err)
	}
	b, err := Read(r, "BBBB")
	if err != nil || len(b) != 0 {
		t.Fatalf("frame B = %q, %v", b, err)
	}
	// Wrong expected magic is corruption, not truncation.
	r2 := bytes.NewReader(buf.Bytes())
	if _, err := Read(r2, "BBBB"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("magic mismatch = %v, want ErrCorrupt", err)
	}
}

// TestParseReportsFrameExtent pins what a log scan builds its torn-tail
// rule on: a short frame is ErrTruncated, while a complete frame that fails
// verification is ErrCorrupt with n spanning exactly that frame.
func TestParseReportsFrameExtent(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, "AAAA", []byte("one"))
	first := buf.Len()
	Write(&buf, "AAAA", []byte("two"))
	data := buf.Bytes()

	body, n, err := Parse(data, "AAAA")
	if err != nil || string(body) != "one" || n != first || n != Overhead+3 {
		t.Fatalf("Parse = %q, %d, %v", body, n, err)
	}
	for cut := 0; cut < first; cut++ {
		if _, _, err := Parse(data[:cut], "AAAA"); !errors.Is(err, ErrTruncated) {
			t.Errorf("Parse(prefix %d) = %v, want ErrTruncated", cut, err)
		}
	}
	for _, off := range []int{0, 4, HeaderSize, first - 1} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x20
		if _, n, err := Parse(mut, "AAAA"); !errors.Is(err, ErrCorrupt) || n != first {
			t.Errorf("Parse with byte %d flipped = %d, %v, want ErrCorrupt over %d bytes", off, n, err, first)
		}
	}
}
