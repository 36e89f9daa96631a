package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"repro/internal/server"
)

// httpConn is a minimal HTTP/1.1 keep-alive client over one TCP
// connection. The load loops send pre-encoded requests and read each
// response without decoding it, so the load process spends little CPU
// next to the server on a small machine.
type httpConn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &httpConn{addr: addr, c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *httpConn) Close() error { return h.c.Close() }

// redial replaces a connection that failed mid-request.
func (h *httpConn) redial() error {
	h.c.Close()
	n, err := dialHTTP(h.addr)
	if err != nil {
		return err
	}
	*h = *n
	return nil
}

// do sends req and reads the whole response into *body (reusing its
// storage). It returns the status code.
func (h *httpConn) do(req []byte, body *[]byte) (int, error) {
	if _, err := h.c.Write(req); err != nil {
		return 0, err
	}
	line, err := h.r.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = h.r.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if k, v, ok := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(":")); ok {
			v = bytes.TrimSpace(v)
			switch {
			case bytes.EqualFold(k, []byte("Content-Length")):
				if length, err = strconv.Atoi(string(v)); err != nil {
					return 0, fmt.Errorf("bad content length %q", v)
				}
			case bytes.EqualFold(k, []byte("Transfer-Encoding")):
				chunked = bytes.EqualFold(v, []byte("chunked"))
			}
		}
	}
	buf := (*body)[:0]
	switch {
	case chunked:
		for {
			line, err = h.r.ReadSlice('\n')
			if err != nil {
				return 0, err
			}
			sz, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
			n, err := strconv.ParseUint(string(sz), 16, 32)
			if err != nil {
				return 0, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				for { // trailer section ends with an empty line
					if line, err = h.r.ReadSlice('\n'); err != nil {
						return 0, err
					}
					if len(line) <= 2 {
						break
					}
				}
				break
			}
			buf = grow(buf, int(n))
			if _, err := io.ReadFull(h.r, buf[len(buf)-int(n):]); err != nil {
				return 0, err
			}
			if _, err := h.r.Discard(2); err != nil {
				return 0, err
			}
		}
	case length >= 0:
		buf = grow(buf, length)
		if _, err := io.ReadFull(h.r, buf); err != nil {
			return 0, err
		}
	default:
		return 0, errors.New("response without length")
	}
	*body = buf
	return status, nil
}

// grow extends b by n bytes, reallocating only when capacity runs out.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) < n {
		nb := make([]byte, len(b), 2*cap(b)+n)
		copy(nb, b)
		b = nb
	}
	return b[:len(b)+n]
}

// getJSON issues a GET and decodes a 200 response into v.
func (h *httpConn) getJSON(path string, v any) error {
	var body []byte
	status, err := h.do(appendRequest(nil, "GET", path, nil, 0), &body)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// topnBody encodes a /v1/topn request body.
func topnBody(w []float64, n int) []byte {
	b, _ := json.Marshal(server.TopNRequest{Weights: w, N: n})
	return b
}

// decodeTopN parses a /v1/topn response body.
func decodeTopN(body []byte) ([]ranked, server.StatsJSON, error) {
	var resp server.TopNResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, server.StatsJSON{}, err
	}
	out := make([]ranked, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = ranked{r.ID, r.Score}
	}
	return out, resp.Stats, nil
}

// search fetches the complete ranking for w through /v1/search.
func (h *httpConn) search(w []float64) ([]ranked, error) {
	b, _ := json.Marshal(server.SearchRequest{Weights: w})
	var body []byte
	status, err := h.do(appendRequest(nil, "POST", "/v1/search", b, 0), &body)
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("/v1/search: status %d: %s", status, body)
	}
	var out []ranked
	done := false
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var row struct {
			ID    uint64  `json:"id"`
			Score float64 `json:"score"`
			Done  bool    `json:"done"`
			Trunc bool    `json:"truncated"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			return nil, fmt.Errorf("/v1/search line: %w", err)
		}
		if row.Done {
			if row.Trunc {
				return nil, errors.New("/v1/search: ranking truncated")
			}
			done = true
			break
		}
		out = append(out, ranked{row.ID, row.Score})
	}
	if !done {
		return nil, errors.New("/v1/search: stream ended without trailer")
	}
	return out, nil
}
