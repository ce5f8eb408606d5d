// Package frame is the one checksummed framing every durable byte stream
// uses: the database and tool snapshots (storage.Save, core.Tool.Save), the
// WAL's log header and records, and the WAL's checkpoint file. A frame is
//
//	magic(4) | version(1) | bodyLen(8, LE) | body | crc32c(4, LE)
//
// with the CRC taken over version, length and body. The length lives in the
// header, so frames compose in one stream. Readers fail with exactly two
// sentinels: ErrTruncated when the bytes end before the frame does, and
// ErrCorrupt when they are present but wrong.
package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	version = 1
	// HeaderSize is the byte count before the body: magic, version, length.
	HeaderSize = 13
	// Overhead is the framing bytes around a body: header plus checksum.
	Overhead = HeaderSize + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTruncated reports a frame that ends before its header says it should.
var ErrTruncated = errors.New("frame: truncated")

// ErrCorrupt reports a frame whose bytes are present but wrong: bad magic,
// unsupported version, or a checksum mismatch.
var ErrCorrupt = errors.New("frame: corrupt")

// Write frames the concatenation of body under magic (four bytes) and
// writes it to w.
func Write(w io.Writer, magic string, body ...[]byte) error {
	var buf [Overhead]byte // header, then checksum, in one buffer
	hdr, sum := buf[:HeaderSize], buf[HeaderSize:]
	copy(hdr[:4], magic)
	hdr[4] = version
	n := 0
	for _, b := range body {
		n += len(b)
	}
	binary.LittleEndian.PutUint64(hdr[5:], uint64(n))
	crc := crc32.Update(0, castagnoli, hdr[4:])
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, b := range body {
		crc = crc32.Update(crc, castagnoli, b)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(sum, crc)
	_, err := w.Write(sum)
	return err
}

// Parse verifies the frame at the start of data and returns its body (a
// subslice of data) and the frame's total size n. When the bytes run out
// before the frame ends the error is ErrTruncated and n is 0; when the frame
// is complete but fails verification the error is ErrCorrupt and n still
// spans the whole frame, so a log scan can tell a bad final frame from one
// with bytes after it.
func Parse(data []byte, magic string) (body []byte, n int, err error) {
	if len(data) < Overhead {
		return nil, 0, fmt.Errorf("%w: %s frame of %d bytes", ErrTruncated, magic, len(data))
	}
	blen := binary.LittleEndian.Uint64(data[5:HeaderSize])
	if blen > uint64(len(data)-Overhead) {
		return nil, 0, fmt.Errorf("%w: %s frame needs %d body bytes, %d remain", ErrTruncated, magic, blen, len(data)-Overhead)
	}
	n = Overhead + int(blen)
	body = data[HeaderSize : n-4]
	if err := checkHeader(data[:HeaderSize], magic); err != nil {
		return nil, n, err
	}
	if err := checkSum(data[:HeaderSize], body, data[n-4:n], magic); err != nil {
		return nil, n, err
	}
	return body, n, nil
}

// Read reads one frame from r and returns its body. The body is read
// progressively, bounded by what r actually yields, so a corrupted length
// field cannot force a giant allocation.
func Read(r io.Reader, magic string) ([]byte, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: missing %s frame header", ErrTruncated, magic)
		}
		return nil, err
	}
	if err := checkHeader(hdr[:], magic); err != nil {
		return nil, err
	}
	blen := binary.LittleEndian.Uint64(hdr[5:])
	var body bytes.Buffer
	if n, err := io.CopyN(&body, r, int64(blen)); err != nil || uint64(n) != blen {
		return nil, fmt.Errorf("%w: %s frame ends %d bytes short", ErrTruncated, magic, blen-uint64(n))
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("%w: %s frame missing checksum", ErrTruncated, magic)
	}
	if err := checkSum(hdr[:], body.Bytes(), sum[:], magic); err != nil {
		return nil, err
	}
	return body.Bytes(), nil
}

func checkHeader(hdr []byte, magic string) error {
	if string(hdr[:4]) != magic {
		return fmt.Errorf("%w: want %s frame, found %q", ErrCorrupt, magic, hdr[:4])
	}
	if hdr[4] != version {
		return fmt.Errorf("%w: unsupported %s frame version %d", ErrCorrupt, magic, hdr[4])
	}
	return nil
}

func checkSum(hdr, body, sum []byte, magic string) error {
	crc := crc32.Update(crc32.Update(0, castagnoli, hdr[4:]), castagnoli, body)
	if binary.LittleEndian.Uint32(sum) != crc {
		return fmt.Errorf("%w: %s frame checksum mismatch", ErrCorrupt, magic)
	}
	return nil
}
