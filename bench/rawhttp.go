package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// rawConn is one keep-alive HTTP/1.1 connection owned by one issuer. It
// writes the request in one system call and parses only the framing the
// benchmark needs, so the generator's own CPU time and allocations stay
// small beside the servers it shares two cores with, and no transport
// goroutine sits between the issuer and its socket.
type rawConn struct {
	addr string // host:port
	c    net.Conn
	r    *bufio.Reader
	req  []byte // request buffer, reused
}

func newRawConn(base string) *rawConn {
	return &rawConn{addr: strings.TrimPrefix(base, "http://")}
}

func (rc *rawConn) close() {
	if rc.c != nil {
		rc.c.Close()
		rc.c = nil
	}
}

// post sends one JSON POST and returns the status and response body. Any
// error closes the connection; the next call dials again.
func (rc *rawConn) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if rc.c == nil {
		d := net.Dialer{Timeout: 5 * time.Second}
		c, err := d.DialContext(ctx, "tcp", rc.addr)
		if err != nil {
			return 0, nil, err
		}
		rc.c, rc.r = c, bufio.NewReaderSize(c, 16<<10)
	}
	rc.req = append(rc.req[:0], "POST "...)
	rc.req = append(rc.req, path...)
	rc.req = append(rc.req, " HTTP/1.1\r\nHost: "...)
	rc.req = append(rc.req, rc.addr...)
	rc.req = append(rc.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	rc.req = strconv.AppendInt(rc.req, int64(len(body)), 10)
	rc.req = append(rc.req, "\r\n\r\n"...)
	rc.req = append(rc.req, body...)
	if err := rc.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		rc.close()
		return 0, nil, err
	}
	if _, err := rc.c.Write(rc.req); err != nil {
		rc.close()
		return 0, nil, err
	}
	status, data, keep, err := readResponse(rc.r)
	if err != nil || !keep {
		rc.close()
	}
	return status, data, err
}

var errFraming = errors.New("response has neither Content-Length nor chunked framing")

// readResponse parses one HTTP/1.1 response: the status code, the body
// (Content-Length or chunked) and whether the connection stays open.
func readResponse(r *bufio.Reader) (status int, body []byte, keep bool, err error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		line, err = r.ReadSlice('\n')
		if err != nil {
			return status, nil, false, err
		}
		k, v, ok := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(":"))
		if !ok {
			break // the blank line ending the header
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return status, nil, false, err
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			keep = !bytes.EqualFold(v, []byte("close"))
		}
	}
	switch {
	case chunked:
		body, err = readChunked(r)
	case length >= 0:
		body = make([]byte, length)
		_, err = io.ReadFull(r, body)
	default:
		err = errFraming
	}
	return status, body, keep, err
}

// readChunked reads a chunked body and its (ignored) trailer.
func readChunked(r *bufio.Reader) ([]byte, error) {
	var body []byte
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		size, err := strconv.ParseInt(strings.TrimSpace(strings.SplitN(string(line), ";", 2)[0]), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			for {
				line, err := r.ReadSlice('\n')
				if err != nil {
					return nil, err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return body, nil
				}
			}
		}
		n := len(body)
		body = append(body, make([]byte, size)...)
		if _, err := io.ReadFull(r, body[n:]); err != nil {
			return nil, err
		}
		if _, err := r.Discard(2); err != nil {
			return nil, err
		}
	}
}
