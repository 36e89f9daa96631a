package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The lean client must read fixed-length and chunked responses, and
// keep the connection usable across requests.
func TestHTTPConnReadsBothFramings(t *testing.T) {
	big := strings.Repeat("x", 10000) // beyond net/http's buffer: chunked
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Header.Get("X-Request-Id") != "7" {
			w.WriteHeader(http.StatusTeapot)
		}
		if bytes.Equal(body, []byte("big")) {
			io.WriteString(w, big)
			return
		}
		w.Write(body)
	}))
	defer srv.Close()
	h, err := dialHTTP(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var body []byte
	for _, c := range []struct{ send, want string }{{"small", "small"}, {"big", big}, {"again", "again"}} {
		status, err := h.do(appendRequest(nil, "POST", "/", []byte(c.send), 7), &body)
		if err != nil || status != 200 || string(body) != c.want {
			t.Fatalf("%s: status %d err %v body %.20q", c.send, status, err, body)
		}
	}
	if status, err := h.do(appendRequest(nil, "POST", "/", []byte("x"), 0), &body); err != nil || status != http.StatusTeapot {
		t.Fatalf("status %d err %v, want 418", status, err)
	}
}
