package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// MaxMessage caps one JSON message on a farm or dist connection, in
// bytes without its newline. The largest messages, a job carrying
// firmware and Verilog sources and a subtree result, stay far below it.
const MaxMessage = 16 << 20

// ErrMessageTooLarge is what MessageReader returns for a message past
// MaxMessage. The reader is then inside that message, so the caller
// drops the connection.
var ErrMessageTooLarge = fmt.Errorf("campaign: message exceeds %d bytes", MaxMessage)

// MessageReader reads the newline-delimited JSON messages of a farm or
// dist connection (the writer side is a json.Encoder). It holds at
// most MaxMessage bytes of one message, so a peer that streams one
// endless value gets ErrMessageTooLarge instead of the reader's memory.
type MessageReader struct{ r *bufio.Reader }

// NewMessageReader reads messages from r.
func NewMessageReader(r io.Reader) *MessageReader {
	return &MessageReader{r: bufio.NewReader(r)}
}

// Read decodes the next message into v, skipping blank lines. It
// returns io.EOF when the peer closed between messages and
// io.ErrUnexpectedEOF when it closed inside one.
func (m *MessageReader) Read(v any) error {
	var msg []byte
	for {
		part, err := m.r.ReadSlice('\n')
		n := len(msg) + len(part)
		if err == nil {
			n-- // the newline
		}
		if n > MaxMessage {
			return ErrMessageTooLarge
		}
		msg = append(msg, part...)
		switch {
		case err == nil:
			if len(bytes.TrimSpace(msg)) == 0 {
				msg = msg[:0]
				continue
			}
			return json.Unmarshal(msg, v)
		case errors.Is(err, bufio.ErrBufferFull):
			// The line goes on past the buffer: read its next part.
		case errors.Is(err, io.EOF) && len(bytes.TrimSpace(msg)) > 0:
			return io.ErrUnexpectedEOF
		default:
			return err
		}
	}
}
