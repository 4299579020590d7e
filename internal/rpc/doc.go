// Package rpc implements ShardStore's shared RPC interface (§2.1 of the
// paper): storage hosts run an independent key-value store per disk, and a
// shared endpoint "steers requests to target disks based on shard IDs". The
// interface offers the request-plane calls (put, get, delete, the batched
// mget/mput/mdelete forms, and the ordered-range scan) and control-plane
// operations (the paged list, fail-fast bulk create/remove, remove/return a
// disk from service, flush, scrub, stats, metrics).
//
// # Wire contract (v2)
//
// A v2 connection opens with a 4-byte preamble "S2P\x02". Every frame in
// either direction then carries a fixed 16-byte header followed by a raw
// binary payload (values travel as raw bytes — never base64):
//
//	offset  size  field
//	0       1     magic      0xA7
//	1       1     version    0x02
//	2       1     opcode     (put=1 get=2 delete=3 list=4 bulk_create=5
//	                          bulk_remove=6 remove_disk=7 return_disk=8
//	                          flush=9 stats=10 scrub=11 scrub_status=12
//	                          metrics=13 mget=14 mput=15 mdelete=16
//	                          trace=17 slowlog=18 scan=19)
//	3       1     flags      bit 0 (0x01): durable — acknowledge the
//	                          mutation only once persistent (group commit).
//	                          bit 1 (0x02): traced — trace this request
//	                          end-to-end under its request id; a server
//	                          with tracing enabled echoes the bit on the
//	                          response (the negotiation signal). All other
//	                          bits are reserved and must be ignored, so new
//	                          flags stay compatible with older v2 peers.
//	4       8     request id (big-endian; client-assigned, echoed verbatim)
//	12      4     payload length (big-endian; <= MaxFrame, enforced on
//	                          write AND read)
//
// Requests carry client-assigned IDs and responses may return OUT OF ORDER:
// one connection is a true pipeline. The server dispatches each request
// concurrently (bounded per-connection worker semaphore) and a single
// writer goroutine serializes response frames; the client demultiplexes by
// request id. A request whose caller gave up (context cancelled or timed
// out) is simply abandoned — the late response is discarded by the demux
// loop and the connection stays healthy.
//
// Payload scalars are big-endian; strings are u16 length + bytes, values
// are u32 length + bytes. put/get value bodies are the raw frame tail.
// Control-plane result blobs (stats, scrub state, metrics snapshots) are
// JSON inside a u32-length field: they are low-rate and evolve faster than
// the hot request plane, which never pays for that flexibility.
//
// Every response payload begins with a u16 status code followed, when the
// code is non-zero, by a u16-length message string. Batch responses carry
// an additional per-item code vector. The code taxonomy is wire-stable:
//
//	0 ok              success
//	1 not_found       the shard id has no live value (ErrNotFound)
//	2 out_of_service  the steered disk is removed from service
//	                  (ErrOutOfService)
//	3 bad_request     malformed frame, unknown opcode, missing or
//	                  mismatched arguments (ErrBadRequest)
//	4 internal        the backend failed the operation; the message has
//	                  detail (ErrInternal)
//	5 frame_too_large a frame would exceed MaxFrame; raised on the WRITE
//	                  side before any byte hits the wire (ErrFrameTooLarge)
//	6 shutdown        the server is draining; retry against another host
//	                  (ErrShutdown)
//	7 unsupported     tracing not enabled on this node: trace and slowlog
//	                  on a server whose Obs has no spans (ErrUnsupported)
//
// Clients surface failures as *WireError and match with errors.Is against
// the sentinel per code — never against message text, which is not part of
// the contract.
//
// # Scan (opcode 19) and list (opcode 4)
//
// scan reads one ordered page of the half-open range [start, end): live
// shard ids in ascending byte order, the newest value for each, deleted
// shards elided. list reads the same page without the values. Both take the
// request payload
//
//	str(start) str(end) u32(limit)
//
// where end "" means unbounded above and limit 0 lets the server choose its
// page cap (the server clamps every page to its cap regardless). The
// success response payloads are
//
//	scan: u32(count) (str(key) bytes(value))* str(next)
//	list: u32(count) str(key)* str(next)
//
// next is the continuation token: "" means the range is exhausted;
// otherwise the client resumes the cursor by reissuing the request with
// start = next (the token is last returned key + "\x00", so the cursor
// always advances — a walk can never loop). Pages are bounded by the
// limit, the server's page cap, and a byte budget that keeps response
// frames under MaxFrame even with large values, so a client must always be
// prepared to follow the token; the Iterator type does so for scan and
// Client.List for list.
//
// A range spans the whole steering space, so the server pages every
// in-service backend and merges the ordered per-disk pages (shard ids steer
// to exactly one disk, making the pages disjoint). Each per-disk page is a
// point-in-time snapshot of that backend — entries within one disk's page
// are mutually consistent, while the cross-disk merge is only as atomic as
// the constituent snapshots. Out-of-service disks drop out of the merge.
//
// # Connections that do not open with the preamble
//
// v2 is the only protocol the server speaks. A connection whose first four
// bytes are not "S2P\x02" — the retired length-prefixed JSON protocol, a
// stray client, garbage, or a peer that hangs up before sending four bytes
// — is closed without a reply byte and without counting as a request or a
// failure: no frame was parsed, so there is no request id to answer. The
// peer reads EOF.
package rpc
