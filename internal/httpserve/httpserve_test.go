package httpserve

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartServeShutdown(t *testing.T) {
	s, err := Start("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Addr(), ":") || strings.HasSuffix(s.Addr(), ":0") {
		t.Fatalf("Addr not resolved: %q", s.Addr())
	}
	resp, err := http.Get("http://" + s.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "pong" {
		t.Fatalf("body = %q", body)
	}
	if err := s.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(time.Second); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/"); err == nil {
		t.Fatal("server still reachable after Shutdown")
	}
}

func TestStartBadAddressFailsFast(t *testing.T) {
	if _, err := Start("256.256.256.256:99999", nil); err == nil {
		t.Fatal("want bind error")
	}
}

func TestShutdownWaitsForInflight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	s, err := Start("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "slow")
	}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var body string
	go func() {
		defer wg.Done()
		resp, err := http.Get("http://" + s.Addr() + "/")
		if err != nil {
			t.Errorf("in-flight request failed: %v", err)
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(b)
	}()
	<-entered
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	if err := s.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if body != "slow" {
		t.Fatalf("in-flight response = %q, want %q", body, "slow")
	}
}
