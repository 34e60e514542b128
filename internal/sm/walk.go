package sm

import (
	"fmt"
	"slices"
	"sync"

	"flexric/internal/encoding/asn1per"
	"flexric/internal/encoding/flat"
	"flexric/internal/encoding/walk"
)

// Every SM message type describes itself once, beside the type, as a
// field walk (package walk); there is no hand-written codec. The
// walkers keep their scratch, pooled or, in the per-TTI reporter of the
// MAC, RLC and PDCP SMs, held by the reporter, so an encode into a warm
// buffer allocates nothing.

// message is an SM payload that describes itself as a field walk.
type message interface{ walk(f walk.Fields) }

// walkers holds one of each walker with its scratch. Passed as Fields a
// walker escapes; a pooled one costs no allocation, so an encode
// allocates its result and nothing else.
type walkers struct {
	w  asn1per.Writer
	b  flat.Builder
	pw walk.PERWriter
	pr walk.PERReader
	fw walk.FlatWriter
	fr walk.FlatReader
}

var walkerPool = sync.Pool{New: func() any { return new(walkers) }}

// appendWalk appends m, encoded in scheme s behind its scheme byte, to
// dst (which may be nil), through pooled walkers.
func appendWalk(dst []byte, s Scheme, m message) []byte {
	ws := walkerPool.Get().(*walkers)
	defer walkerPool.Put(ws)
	return ws.append(dst, s, m)
}

// append appends m, encoded in scheme s behind its scheme byte, to dst.
func (ws *walkers) append(dst []byte, s Scheme, m message) []byte {
	if s == SchemeFB {
		ws.b.Reset()
		ws.fw.Begin(&ws.b, 0)
		m.walk(&ws.fw)
		ws.fw.Finish()
		body := ws.b.Bytes()
		return append(append(slices.Grow(dst, 1+len(body)), byte(SchemeFB)), body...)
	}
	ws.w.Reset()
	ws.w.WriteBits(uint64(SchemeASN), 8)
	ws.pw.W = &ws.w
	m.walk(&ws.pw)
	return append(dst, ws.w.Bytes()...)
}

// decodeNew decodes the payload b into a new T; nil on error.
func decodeNew[T any, P interface {
	*T
	message
}](b []byte) (*T, error) {
	s, body, err := schemeOf(b)
	if err != nil {
		return nil, err
	}
	ws := walkerPool.Get().(*walkers)
	defer walkerPool.Put(ws)
	m := P(new(T))
	if s == SchemeFB {
		err = ws.decodeFB(body, m)
	} else {
		ws.pr.R.Reset(body)
		m.walk(&ws.pr)
		err = ws.pr.Done()
		ws.pr.R.Reset(nil) // do not pin the payload in the pool
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return m, nil
}

func (ws *walkers) decodeFB(body []byte, m message) error {
	tab, err := flat.GetRoot(body)
	if err != nil {
		return err
	}
	ws.fr.Begin(tab, len(body))
	m.walk(&ws.fr)
	return ws.fr.Done()
}
