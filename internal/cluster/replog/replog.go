// Package replog implements the client side of the cluster's
// replication-log protocol: pulling framed journal lines from a peer
// node, shipping them to a follower, and the catch-up driver the router
// uses to re-admit a failed replica.
//
// Entries travel as the exact CRC-framed bytes the source journaled
// ("%08x <json>" per line), so one checksum protects a record from the
// source's disk to the follower's: the follower re-verifies before
// applying and a torn line ends the batch at the last good record
// (truncate-and-resync — a corrupt entry is never applied).
//
// Catch-up is incremental by design: a re-admitted replica receives only
// the entries past its last applied generation. Only when that
// generation has rotated out of the source's log (snapshot rotation or
// ring eviction, HTTP 410 Gone) does the driver fall back to a full
// state copy (snapshot + reset) — and then it tails the log again to
// pick up what landed during the copy.
package replog

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"

	"matproj/internal/cluster/wire"
)

// pullBatch bounds entries per catch-up pull round.
const pullBatch = 512

// maxRounds bounds catch-up pull rounds before giving up (the health
// loop retries on its next sweep).
const maxRounds = 64

// Client speaks the repl protocol against node base URLs. The zero
// value is usable.
type Client struct {
	// HTTP is the transport; nil means http.DefaultClient. The router
	// deliberately hands this a plain client rather than its
	// fault-instrumented call path: catch-up traffic is not part of the
	// request plane.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// parseHead decodes the X-Repl-Head response header.
func parseHead(resp *http.Response) (uint64, error) {
	h := resp.Header.Get(wire.HeaderReplHead)
	if h == "" {
		return 0, fmt.Errorf("replog: response missing %s header", wire.HeaderReplHead)
	}
	head, err := strconv.ParseUint(h, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("replog: bad %s header: %w", wire.HeaderReplHead, err)
	}
	return head, nil
}

// splitLines breaks a line stream into non-empty lines.
func splitLines(body []byte) [][]byte {
	var lines [][]byte
	for _, ln := range bytes.Split(body, []byte("\n")) {
		if len(ln) > 0 {
			lines = append(lines, ln)
		}
	}
	return lines
}

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("replog: read body: %w", err)
	}
	return buf.Bytes(), nil
}

// Pull fetches up to limit entries with generation > from. gone reports
// HTTP 410: from has rotated out of src's log.
func (c *Client) Pull(src string, from uint64, limit int) (lines [][]byte, head uint64, gone bool, err error) {
	url := fmt.Sprintf("%s%s%s?from=%d&limit=%d", src, wire.Version, wire.PathReplPull, from, limit)
	resp, err := c.http().Post(url, "text/plain", nil)
	if err != nil {
		return nil, 0, false, fmt.Errorf("replog: pull %s: %w", src, err)
	}
	body, err := readAll(resp)
	if err != nil {
		return nil, 0, false, err
	}
	head, herr := parseHead(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		if herr != nil {
			return nil, 0, false, herr
		}
		return splitLines(body), head, false, nil
	case http.StatusGone:
		return nil, head, true, nil
	default:
		return nil, 0, false, fmt.Errorf("replog: pull %s: status %d: %s", src, resp.StatusCode, bytes.TrimSpace(body))
	}
}

// Apply ships entries to dst's apply endpoint.
func (c *Client) Apply(dst string, lines [][]byte) (wire.ReplApplyResponse, error) {
	var out wire.ReplApplyResponse
	url := dst + wire.Version + wire.PathReplApply
	resp, err := c.http().Post(url, "text/plain", bytes.NewReader(joinLines(lines)))
	if err != nil {
		return out, fmt.Errorf("replog: apply %s: %w", dst, err)
	}
	body, err := readAll(resp)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("replog: apply %s: status %d: %s", dst, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := wire.DecodeJSONBytes(body, &out); err != nil {
		return out, fmt.Errorf("replog: apply %s: %w", dst, err)
	}
	return out, nil
}

// Snapshot fetches src's full state as framed insert lines.
func (c *Client) Snapshot(src string) (lines [][]byte, head uint64, err error) {
	url := src + wire.Version + wire.PathReplSnapshot
	resp, err := c.http().Post(url, "text/plain", nil)
	if err != nil {
		return nil, 0, fmt.Errorf("replog: snapshot %s: %w", src, err)
	}
	body, err := readAll(resp)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("replog: snapshot %s: status %d: %s", src, resp.StatusCode, bytes.TrimSpace(body))
	}
	head, err = parseHead(resp)
	if err != nil {
		return nil, 0, err
	}
	return splitLines(body), head, nil
}

// Reset replaces dst's full state with snapshot lines, fast-forwarded
// to generation upto.
func (c *Client) Reset(dst string, lines [][]byte, upto uint64) error {
	url := fmt.Sprintf("%s%s%s?reset=1&upto=%d", dst, wire.Version, wire.PathReplApply, upto)
	resp, err := c.http().Post(url, "text/plain", bytes.NewReader(joinLines(lines)))
	if err != nil {
		return fmt.Errorf("replog: reset %s: %w", dst, err)
	}
	body, err := readAll(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replog: reset %s: status %d: %s", dst, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

func joinLines(lines [][]byte) []byte {
	var buf bytes.Buffer
	for _, ln := range lines {
		buf.Write(ln)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Result summarizes one catch-up run.
type Result struct {
	// Shipped counts log entries applied on dst (excludes snapshot
	// lines — a catch-up that stayed incremental has Snapshot false).
	Shipped int
	// Snapshot reports a full state copy was needed (log rotated past
	// dst's generation, or the log had an unservable hole).
	Snapshot bool
	// Head is dst's generation after catch-up.
	Head uint64
}

// CatchUp brings dst to src's state, shipping only entries past from
// when possible. It loops pull→apply and returns as soon as an apply
// brings dst to the head the last pull reported, falling back to
// snapshot+reset on 410 Gone or an unservable hole (entries lost to
// dropped appends or a torn source tail). A batch the follower reports
// torn is re-pulled from the follower's generation — partial batches
// make progress, corrupt entries are never applied. Entries dst already
// holds (a concurrent ship got there first) are skipped by dst and
// count as progress.
func (c *Client) CatchUp(src, dst string, from uint64) (Result, error) {
	var res Result
	stalls := 0
	for round := 0; round < maxRounds; round++ {
		lines, head, gone, err := c.Pull(src, from, pullBatch)
		if err != nil {
			return res, err
		}
		needSnapshot := gone
		if !gone && len(lines) == 0 {
			if from >= head {
				res.Head = from
				return res, nil // caught up
			}
			// Log hole: head advanced past from but no entries are
			// servable (dropped appends, torn source tail).
			needSnapshot = true
		}
		if needSnapshot {
			if res.Snapshot {
				return res, fmt.Errorf("replog: catch-up %s -> %s: still behind after snapshot copy", src, dst)
			}
			snap, snapHead, serr := c.Snapshot(src)
			if serr != nil {
				return res, serr
			}
			if rerr := c.Reset(dst, snap, snapHead); rerr != nil {
				return res, rerr
			}
			res.Snapshot = true
			from = snapHead
			continue // tail the log for writes landed during the copy
		}
		ack, err := c.Apply(dst, lines)
		if err != nil {
			return res, err
		}
		res.Shipped += ack.Applied
		res.Head = ack.Gen
		if ack.Gen >= head {
			return res, nil // caught up
		}
		switch {
		case ack.Gen > from:
			stalls = 0
		case !ack.Torn:
			return res, fmt.Errorf("replog: catch-up %s -> %s: follower made no progress at gen %d", src, dst, from)
		default:
			// Wire corruption: the follower applied the good prefix and
			// refused the rest. Re-pull from its position; give up
			// after repeated zero-progress rounds.
			if stalls++; stalls >= 3 {
				return res, fmt.Errorf("replog: catch-up %s -> %s: torn batches made no progress at gen %d", src, dst, from)
			}
		}
		from = ack.Gen
	}
	return res, fmt.Errorf("replog: catch-up %s -> %s: did not converge within %d rounds", src, dst, maxRounds)
}
