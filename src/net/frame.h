// Length-prefixed application frame codec for the real-socket serving path.
//
// TCP delivers a byte stream with arbitrary segmentation, so the networked
// KV server (src/apps/kv_server_net) frames every request and response:
//
//   offset 0  u16  magic   0x534b ("SK"), big-endian
//   offset 2  u8   version (1)
//   offset 3  u8   opcode  (application-defined; the KV server uses kData)
//   offset 4  u32  payload length, big-endian
//   offset 8  payload bytes
//
// The same frame is used one-per-datagram on UDP, where the magic/version
// check rejects stray or truncated packets.
//
// Decoding is incremental and never asserts on hostile input: FrameDecoder
// accepts bytes in arbitrary chunks (byte-at-a-time included — the
// robustness test feeds exactly that) and reports kNeedMore until a full
// frame is buffered, or kError on a bad magic/version/oversized length.
// After kError the stream is poisoned (a desynchronized length-prefixed
// stream cannot be resynchronized safely); the server closes the connection.
#ifndef SRC_NET_FRAME_H_
#define SRC_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace skyloft {

inline constexpr std::size_t kFrameHeaderSize = 8;
inline constexpr std::uint16_t kFrameMagic = 0x534b;  // "SK"
inline constexpr std::uint8_t kFrameVersion = 1;
// Upper bound on a single payload; a length above this is treated as stream
// corruption rather than an allocation request (SCAN replies cap well below).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

enum class FrameOp : std::uint8_t {
  kData = 0,   // request/response payload (the KV text protocol)
  kError = 1,  // server-side error report
};

// Writes the 8-byte header for a payload of `len` bytes into `out`.
void EncodeFrameHeader(std::uint8_t out[kFrameHeaderSize], std::uint32_t len,
                       FrameOp op = FrameOp::kData);

// Convenience: header + payload in one buffer (client side and UDP; the
// server's TCP path appends header and payload to its per-batch reply
// buffer instead — see kv_server_net).
std::string EncodeFrame(std::string_view payload, FrameOp op = FrameOp::kData);

enum class FrameDecodeStatus {
  kFrame,     // a complete frame was extracted
  kNeedMore,  // valid prefix; feed more bytes
  kError,     // bad magic/version or oversized length; stream is poisoned
};

// One-shot decode for datagrams: the buffer must contain exactly one frame.
// Trailing garbage, truncation, or a bad header all return kError/kNeedMore
// without touching *payload.
FrameDecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t len, std::string* payload,
                              FrameOp* op = nullptr);

// Incremental stream decoder. Typical server loop:
//   decoder.Feed(buf, n);
//   std::string payload;
//   while (decoder.Next(&payload) == FrameDecodeStatus::kFrame) { serve(payload); }
//   if (decoder.poisoned()) { close connection; }
class FrameDecoder {
 public:
  // Appends raw bytes from the stream (any chunking, including 1 byte).
  void Feed(const void* data, std::size_t len);

  // Extracts the next complete frame into *payload (and *op if non-null).
  // kNeedMore when the buffer holds only a partial frame; kError latches
  // `poisoned` and every subsequent call returns kError.
  FrameDecodeStatus Next(std::string* payload, FrameOp* op = nullptr);

  bool poisoned() const { return poisoned_; }
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;  // bytes of buffer_ already handed out as frames
  bool poisoned_ = false;
};

}  // namespace skyloft

#endif  // SRC_NET_FRAME_H_
