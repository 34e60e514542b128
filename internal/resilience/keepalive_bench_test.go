package resilience

import (
	"testing"
	"time"

	"flexric/internal/transport"
)

// nullConn is an inner connection whose Send costs nothing and
// allocates nothing, so the benchmark isolates the wrapper's overhead.
type nullConn struct{}

func (nullConn) Send([]byte) error               { return nil }
func (nullConn) SendBatch([][]byte) error        { return nil }
func (nullConn) Recv([]byte) ([]byte, error)     { <-make(chan struct{}); return nil, nil }
func (nullConn) SetRecvDeadline(time.Time) error { return nil }
func (nullConn) LastRecvDuration() time.Duration { return 0 }
func (nullConn) Close() error                    { return nil }
func (nullConn) RemoteAddr() string              { return "null" }

// BenchmarkResilienceSendHotPath gates the documented contract of
// kaConn.Send: the resilience wrapper adds one mutex and one atomic
// store to the indication hot path — and zero allocations (enforced at
// 0 allocs/op by scripts/verify.sh).
func BenchmarkResilienceSendHotPath(b *testing.B) {
	cfg := Config{}.WithDefaults()
	tc := cfg.WrapConn(nullConn{})
	defer tc.Close()
	if _, ok := tc.(*kaConn); !ok {
		b.Fatalf("WrapConn returned %T, want *kaConn", tc)
	}
	frame := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tc.Send(frame); err != nil {
			b.Fatal(err)
		}
	}
}

var _ transport.Conn = nullConn{}
