// Fuzz-style robustness tests for the wire codecs: every decoder must
// report needs-more/error on truncated, split, or corrupted input — never
// assert, crash, or mis-frame. The TCP serving path feeds the frame decoder
// whatever segmentation the kernel produces, so byte-at-a-time and
// split-at-every-offset delivery are the ground truth here, not edge cases.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/frame.h"

namespace skyloft {
namespace {

std::string MultiFrameWire() {
  std::string wire;
  wire += EncodeFrame("GET user42");
  wire += EncodeFrame("");  // zero-length payload is a legal frame
  wire += EncodeFrame("SET user42 " + std::string(300, 'v'));
  wire += EncodeFrame("reply", FrameOp::kError);
  return wire;
}

std::vector<std::string> ExpectedPayloads() {
  return {"GET user42", "", "SET user42 " + std::string(300, 'v'), "reply"};
}

TEST(FrameDecoderRobustness, ByteAtATime) {
  const std::string wire = MultiFrameWire();
  const auto expected = ExpectedPayloads();
  FrameDecoder decoder;
  std::vector<std::string> got;
  std::vector<FrameOp> ops;
  for (const char byte : wire) {
    decoder.Feed(&byte, 1);
    std::string payload;
    FrameOp op;
    while (decoder.Next(&payload, &op) == FrameDecodeStatus::kFrame) {
      got.push_back(payload);
      ops.push_back(op);
    }
    EXPECT_FALSE(decoder.poisoned());
  }
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(ops.back(), FrameOp::kError);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderRobustness, SplitAtEveryOffset) {
  const std::string wire = MultiFrameWire();
  const auto expected = ExpectedPayloads();
  for (std::size_t split = 0; split <= wire.size(); split++) {
    FrameDecoder decoder;
    decoder.Feed(wire.data(), split);
    std::vector<std::string> got;
    std::string payload;
    while (decoder.Next(&payload) == FrameDecodeStatus::kFrame) {
      got.push_back(payload);
    }
    decoder.Feed(wire.data() + split, wire.size() - split);
    while (decoder.Next(&payload) == FrameDecodeStatus::kFrame) {
      got.push_back(payload);
    }
    EXPECT_FALSE(decoder.poisoned()) << "split at " << split;
    EXPECT_EQ(got, expected) << "split at " << split;
  }
}

TEST(FrameDecoderRobustness, TruncatedPrefixNeverYieldsFrame) {
  const std::string wire = EncodeFrame("payload-bytes");
  for (std::size_t len = 0; len < wire.size(); len++) {
    FrameDecoder decoder;
    decoder.Feed(wire.data(), len);
    std::string payload;
    EXPECT_EQ(decoder.Next(&payload), FrameDecodeStatus::kNeedMore) << "prefix " << len;
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(FrameDecoderRobustness, BadMagicPoisons) {
  std::string wire = EncodeFrame("x");
  wire[0] ^= 0x40;
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecodeStatus::kError);
  EXPECT_TRUE(decoder.poisoned());
  // Poison latches: even after feeding a pristine frame, the stream stays
  // dead (a desynchronized length-prefixed stream cannot resync safely).
  const std::string good = EncodeFrame("y");
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&payload), FrameDecodeStatus::kError);
}

TEST(FrameDecoderRobustness, BadVersionPoisons) {
  std::string wire = EncodeFrame("x");
  wire[2] = static_cast<char>(kFrameVersion + 1);
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecodeStatus::kError);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameDecoderRobustness, OversizedLengthPoisonsWithoutAllocating) {
  std::uint8_t hdr[kFrameHeaderSize];
  EncodeFrameHeader(hdr, kMaxFramePayload + 1);
  FrameDecoder decoder;
  decoder.Feed(hdr, sizeof(hdr));
  std::string payload;
  EXPECT_EQ(decoder.Next(&payload), FrameDecodeStatus::kError);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameDecoderRobustness, MaxSizePayloadRoundTrips) {
  const std::string big(kMaxFramePayload, 'z');
  const std::string wire = EncodeFrame(big);
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::string payload;
  ASSERT_EQ(decoder.Next(&payload), FrameDecodeStatus::kFrame);
  EXPECT_EQ(payload, big);
}

TEST(OneShotDecodeRobustness, EveryPrefixRejected) {
  const std::string wire = EncodeFrame("datagram-payload");
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(wire.data());
  for (std::size_t len = 0; len < wire.size(); len++) {
    std::string payload = "untouched";
    EXPECT_NE(DecodeFrame(bytes, len, &payload), FrameDecodeStatus::kFrame) << "prefix " << len;
    EXPECT_EQ(payload, "untouched") << "prefix " << len;
  }
  std::string payload;
  EXPECT_EQ(DecodeFrame(bytes, wire.size(), &payload), FrameDecodeStatus::kFrame);
  EXPECT_EQ(payload, "datagram-payload");
}

TEST(OneShotDecodeRobustness, TrailingGarbageRejected) {
  std::string wire = EncodeFrame("p");
  wire += "JUNK";
  std::string payload;
  EXPECT_EQ(DecodeFrame(reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size(),
                        &payload),
            FrameDecodeStatus::kError);
}

}  // namespace
}  // namespace skyloft
