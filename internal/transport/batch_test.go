package transport

import (
	"bytes"
	"sync"
	"testing"
)

// connPair returns a directly connected client/server pair of the given
// kind (no echo goroutine: the tests drive both ends).
func connPair(t *testing.T, kind Kind, addr string) (client, server Conn) {
	t.Helper()
	l, err := Listen(kind, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err = Dial(kind, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { r.c.Close() })
	return client, r.c
}

// Both transports promise Send does not retain b: mutating the buffer
// the instant Send returns must never corrupt the frame in flight.
func TestMutateAfterSendDoesNotCorruptFrame(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			client, server := connPair(t, k.kind, k.addr(100+i))
			for round := 0; round < 10; round++ {
				msg := bytes.Repeat([]byte{byte(round + 1)}, 512)
				want := append([]byte(nil), msg...)
				if err := client.Send(msg); err != nil {
					t.Fatal(err)
				}
				for j := range msg {
					msg[j] = 0xEE
				}
				got, err := server.Recv(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: frame corrupted by post-Send mutation", round)
				}
			}
		})
	}
}

// The same no-retain contract holds for SendBatch on both transports:
// every buffer in the batch is free for reuse the moment the call
// returns, which is what lets the agent's IndicationBatch recycle its
// pooled frames immediately after flushing.
func TestMutateAfterSendBatchDoesNotCorruptFrames(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			client, server := connPair(t, k.kind, k.addr(110+i))
			for round := 0; round < 5; round++ {
				batch := make([][]byte, 8)
				want := make([][]byte, len(batch))
				for j := range batch {
					batch[j] = bytes.Repeat([]byte{byte(round*16 + j + 1)}, 64+97*j)
					want[j] = append([]byte(nil), batch[j]...)
				}
				if err := client.SendBatch(batch); err != nil {
					t.Fatal(err)
				}
				for _, b := range batch {
					for j := range b {
						b[j] = 0xEE
					}
				}
				for j := range want {
					got, err := server.Recv(nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want[j]) {
						t.Fatalf("round %d frame %d corrupted by post-SendBatch mutation", round, j)
					}
				}
			}
		})
	}
}

// SendBatch must preserve message boundaries and ordering, including
// empty frames, and work through the package-level fallback for plain
// Conns.
func TestSendBatchBoundaries(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			client, server := connPair(t, k.kind, k.addr(120+i))
			msgs := [][]byte{
				[]byte("first"),
				{},
				bytes.Repeat([]byte{0xAB}, 70000),
				[]byte("last"),
			}
			var wg sync.WaitGroup
			wg.Add(1)
			var recvErr error
			got := make([][]byte, 0, len(msgs))
			go func() {
				defer wg.Done()
				for range msgs {
					m, err := server.Recv(nil)
					if err != nil {
						recvErr = err
						return
					}
					got = append(got, append([]byte(nil), m...))
				}
			}()
			if err := client.SendBatch(msgs); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if recvErr != nil {
				t.Fatal(recvErr)
			}
			for j := range msgs {
				if !bytes.Equal(got[j], msgs[j]) {
					t.Fatalf("frame %d: got %d bytes, want %d", j, len(got[j]), len(msgs[j]))
				}
			}
		})
	}
}

// Recv's recycled loop must survive frames both smaller and larger
// than the recycled buffer, back to back.
func TestRecvBufVaryingSizes(t *testing.T) {
	for i, k := range kinds() {
		t.Run(string(k.kind), func(t *testing.T) {
			client, server := connPair(t, k.kind, k.addr(130+i))
			sizes := []int{100, 70000, 1, 4096, 0, 65536, 33}
			go func() {
				for j, n := range sizes {
					if err := client.Send(bytes.Repeat([]byte{byte(j + 1)}, n)); err != nil {
						return
					}
				}
			}()
			var buf []byte
			for j, n := range sizes {
				got, err := server.Recv(buf)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != n {
					t.Fatalf("frame %d: got %d bytes, want %d", j, len(got), n)
				}
				for _, b := range got {
					if b != byte(j+1) {
						t.Fatalf("frame %d: corrupted contents", j)
					}
				}
				buf = got
			}
		})
	}
}
