package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fabricgossip/internal/wire"
)

// FuzzReadFrame fuzzes the TCP frame reader: any byte stream must either
// be rejected with an error or yield exactly the body its length prefix
// declares — never panic, and never return more or fewer bytes than
// claimed.
func FuzzReadFrame(f *testing.F) {
	frame := func(n uint32, body []byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		return append(hdr[:], body...)
	}
	msg := wire.Marshal(&wire.StateInfo{Height: 9})
	body := append([]byte{0, 0, 0, 3}, msg...)
	f.Add(frame(uint32(len(body)), body))
	f.Add(frame(uint32(len(body)), body[:len(body)-1])) // truncated body
	f.Add(frame(uint32(len(body)), append(body, 0xAA))) // trailing bytes
	f.Add(frame(maxFrame, body))                        // huge claim, tiny body
	f.Add(frame(maxFrame+1, body))                      // over the cap
	f.Add(frame(3, []byte{1, 2, 3}))                    // shorter than a sender id
	f.Add([]byte{0, 0})                                 // truncated header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected, as required
		}
		n := binary.BigEndian.Uint32(data[:4])
		if n < 4 || n > maxFrame {
			t.Fatalf("accepted a frame of declared length %d", n)
		}
		if uint32(len(got)) != n || !bytes.Equal(got, data[4:4+n]) {
			t.Fatalf("declared %d bytes, got %d", n, len(got))
		}
	})
}
