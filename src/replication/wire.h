// The NPLSHP replication wire codec, shared by both parties that speak it:
// ReplicationListener (primary side) and ReplicaStore (follower side).
//
// v1 blocks (one direction, primary → follower), reused unchanged inside
// the v2 session below — the bootstrap hello and the frame stream:
//
//   hello:  "NPLSHP01" | u64 start_seq | u64 image_len
//           | image bytes | u32 masked_crc(image)
//   frame:  u8 0x02 | u64 segment_seq | i64 shipped_at_us
//           | u32 payload_len | u32 masked_crc(payload) | payload bytes
//   traced: u8 0x03 | u64 segment_seq | i64 shipped_at_us
//           | u64 trace_id | u32 root_span
//           | u32 payload_len | u32 masked_crc(payload) | payload bytes
//
// v2 handshake (socket fleet, full duplex). The follower opens with its
// identity and last applied position; the primary answers with the chosen
// mode, then streams v1 frames unchanged:
//
//   follower hello: "NPLSHP02" | u32 name_len | name bytes
//                   | u64 resume_seq | u64 resume_skip_records
//                   (resume_seq 0 = fresh follower, full bootstrap)
//   response: u8 mode — 0 (bootstrap): a v1 hello block follows,
//                       1 (resume):    u64 resume_seq echo follows
//   ack (follower → primary, after every applied batch):
//           u8 0x04 | u64 applied_records | u64 position_seq
//           | u64 position_records | i64 applied_at_us | u32 staleness_ms
//
// All integers little-endian; CRC32C masked as in the WAL.

#ifndef NEPAL_REPLICATION_WIRE_H_
#define NEPAL_REPLICATION_WIRE_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "persist/durable_store.h"

namespace nepal::replication::wire {

inline constexpr char kMagicV1[8] = {'N', 'P', 'L', 'S', 'H', 'P', '0', '1'};
inline constexpr char kMagicV2[8] = {'N', 'P', 'L', 'S', 'H', 'P', '0', '2'};
inline constexpr uint8_t kFrameTag = 0x02;
inline constexpr uint8_t kFrameTagTraced = 0x03;
inline constexpr uint8_t kAckTag = 0x04;
inline constexpr uint8_t kModeBootstrap = 0;
inline constexpr uint8_t kModeResume = 1;
/// Sanity bound on wire lengths; anything larger is stream corruption.
inline constexpr uint64_t kMaxWireObjectBytes = 1ull << 32;

uint64_t ReadU64(const char* p);
uint32_t ReadU32(const char* p);

/// The bootstrap half of a v1 stream.
struct HelloV1 {
  std::string checkpoint_image;
  uint64_t start_seq = 0;
};

/// The follower's opening message on a v2 connection.
struct FollowerHello {
  std::string name;
  uint64_t resume_seq = 0;           // 0 = fresh, ship the image
  uint64_t resume_skip_records = 0;  // applied records within resume_seq
};

/// One follower acknowledgement.
struct Ack {
  uint64_t applied_records = 0;   // frames applied on THIS connection
  uint64_t position_seq = 0;      // segment the follower is inside
  uint64_t position_records = 0;  // records applied within it
  int64_t applied_at_us = 0;      // follower wall clock at apply
  uint32_t staleness_ms = 0;      // follower's own staleness estimate
};

// ---- encode (append to *out) ----

void AppendHelloV1(const HelloV1& hello, std::string* out);
void AppendFollowerHello(const FollowerHello& hello, std::string* out);
void AppendFrame(const persist::WalShipFrame& frame, std::string* out);
void AppendAck(const Ack& ack, std::string* out);

// ---- decode (blocking reads from a descriptor) ----

/// Reads a v1 hello block. kUnavailable on clean EOF before the first
/// byte; Corruption on a bad magic, CRC mismatch or truncation.
Status ReadHelloV1(int fd, HelloV1* out);

/// Reads the follower's v2 opening message (listener side).
Status ReadFollowerHello(int fd, FollowerHello* out);

/// Waits up to `timeout` for a frame: true with a frame, false on timeout.
/// kUnavailable on clean EOF at a frame boundary.
Result<bool> ReadFrame(int fd, persist::WalShipFrame* frame,
                       std::chrono::milliseconds timeout);

/// Waits up to `timeout` for an ack: true with an ack, false on timeout.
/// kUnavailable on clean EOF at a frame boundary (follower went away).
Result<bool> ReadAck(int fd, Ack* out, std::chrono::milliseconds timeout);

}  // namespace nepal::replication::wire

#endif  // NEPAL_REPLICATION_WIRE_H_
