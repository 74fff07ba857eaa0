#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "net/line_channel.h"

namespace semdrift {
namespace {

// -- LineDecoder -------------------------------------------------------------

std::vector<std::string> DrainLines(LineDecoder* decoder) {
  std::vector<std::string> lines;
  std::string line;
  for (;;) {
    const LineDecoder::Event ev = decoder->Next(&line);
    if (ev == LineDecoder::Event::kNone) break;
    lines.push_back(ev == LineDecoder::Event::kOversized ? "<OVERSIZED>"
                                                         : line);
  }
  return lines;
}

TEST(LineDecoderTest, SingleCompleteLine) {
  LineDecoder decoder(1024);
  decoder.Feed("stats\n");
  EXPECT_EQ(DrainLines(&decoder),
            (std::vector<std::string>{"stats"}));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(LineDecoderTest, VerbSplitAcrossReads) {
  // The epoll read loop delivers arbitrary fragments; a verb split across
  // two (or five) reads must reassemble byte-exactly.
  LineDecoder decoder(1024);
  decoder.Feed("insta");
  EXPECT_TRUE(DrainLines(&decoder).empty());
  decoder.Feed("nces-of\tanimal");
  EXPECT_TRUE(DrainLines(&decoder).empty());
  decoder.Feed("\t5\nis-");
  EXPECT_EQ(DrainLines(&decoder),
            (std::vector<std::string>{"instances-of\tanimal\t5"}));
  decoder.Feed("a\tlion\tanimal\n");
  EXPECT_EQ(DrainLines(&decoder),
            (std::vector<std::string>{"is-a\tlion\tanimal"}));
}

TEST(LineDecoderTest, ByteAtATime) {
  LineDecoder decoder(1024);
  const std::string input = "mutex\ta\tb\nstats\n";
  std::vector<std::string> got;
  for (char c : input) {
    decoder.Feed(std::string_view(&c, 1));
    for (const std::string& line : DrainLines(&decoder)) got.push_back(line);
  }
  EXPECT_EQ(got, (std::vector<std::string>{"mutex\ta\tb", "stats"}));
}

TEST(LineDecoderTest, ManyLinesInOneRead) {
  LineDecoder decoder(1024);
  decoder.Feed("a\nb\nc\nd");
  EXPECT_EQ(DrainLines(&decoder), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(decoder.buffered_bytes(), 1u);
}

TEST(LineDecoderTest, CrLfStripped) {
  LineDecoder decoder(1024);
  decoder.Feed("stats\r\nmetrics\r\n");
  EXPECT_EQ(DrainLines(&decoder),
            (std::vector<std::string>{"stats", "metrics"}));
}

TEST(LineDecoderTest, OversizedLineDiscardedInOrder) {
  LineDecoder decoder(8);
  // ok, oversized, ok — the oversized event must hold its slot between them
  // so the response stream stays aligned with pipelined requests.
  decoder.Feed("short\n0123456789abcdef\nok\n");
  EXPECT_EQ(DrainLines(&decoder),
            (std::vector<std::string>{"short", "<OVERSIZED>", "ok"}));
}

TEST(LineDecoderTest, OversizedSpanningManyReads) {
  LineDecoder decoder(8);
  LineDecoder::Event ev;
  std::string line;
  for (int i = 0; i < 100; ++i) {
    decoder.Feed("xxxxxxxxxx");  // 1000 bytes total, never buffered whole.
    ev = decoder.Next(&line);
    EXPECT_EQ(ev, LineDecoder::Event::kNone);
  }
  // Discarding, not accumulating: memory stays bounded by the cap.
  EXPECT_LE(decoder.buffered_bytes(), 8u);
  decoder.Feed("\nafter\n");
  EXPECT_EQ(DrainLines(&decoder),
            (std::vector<std::string>{"<OVERSIZED>", "after"}));
}

TEST(LineDecoderTest, ResidueOnEof) {
  LineDecoder decoder(1024);
  decoder.Feed("stats");
  std::string residue;
  ASSERT_TRUE(decoder.TakeResidue(&residue));
  EXPECT_EQ(residue, "stats");
  EXPECT_FALSE(decoder.TakeResidue(&residue));
}

TEST(LineDecoderTest, NoResidueAfterCompleteLine) {
  LineDecoder decoder(1024);
  decoder.Feed("stats\n");
  (void)DrainLines(&decoder);
  std::string residue;
  EXPECT_FALSE(decoder.TakeResidue(&residue));
}

TEST(LineDecoderTest, OversizedResidueDropped) {
  LineDecoder decoder(4);
  decoder.Feed("0123456789");  // Peer hangs up mid-oversized-line.
  std::string residue;
  EXPECT_FALSE(decoder.TakeResidue(&residue));
}

// -- WriteQueue --------------------------------------------------------------

/// Nonblocking socketpair with a tiny send buffer so Flush() hits partial
/// writes and EAGAIN deterministically.
class WriteQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    const int small = 4096;
    ::setsockopt(fds_[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    ::setsockopt(fds_[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
    ::fcntl(fds_[0], F_SETFL, O_NONBLOCK);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }

  std::string ReadAll(size_t expected) {
    std::string got;
    char buf[4096];
    while (got.size() < expected) {
      const ssize_t n = ::read(fds_[1], buf, sizeof(buf));
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
    }
    return got;
  }

  int fds_[2] = {-1, -1};
};

TEST_F(WriteQueueTest, DrainsSmallPayload) {
  WriteQueue queue;
  queue.Push("OK\tresponse\n");
  EXPECT_EQ(queue.Flush(fds_[0]), WriteQueue::FlushResult::kDrained);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(ReadAll(12), "OK\tresponse\n");
}

TEST_F(WriteQueueTest, SurvivesPartialWritesAndEagain) {
  WriteQueue queue;
  // Far larger than the send buffer: the first flushes must block.
  std::string payload;
  for (int i = 0; i < 20000; ++i) {
    payload += "line-" + std::to_string(i) + "\n";
  }
  queue.Push(payload);
  std::string got;
  char buf[4096];
  bool blocked_once = false;
  while (!queue.empty()) {
    const WriteQueue::FlushResult r = queue.Flush(fds_[0]);
    ASSERT_NE(r, WriteQueue::FlushResult::kError);
    if (r == WriteQueue::FlushResult::kBlocked) {
      blocked_once = true;
      const ssize_t n = ::read(fds_[1], buf, sizeof(buf));
      ASSERT_GT(n, 0);
      got.append(buf, static_cast<size_t>(n));
    }
  }
  EXPECT_TRUE(blocked_once) << "payload fit the send buffer; enlarge it";
  got += ReadAll(payload.size() - got.size());
  EXPECT_EQ(got, payload);  // No bytes lost or reordered across EAGAIN.
}

TEST_F(WriteQueueTest, PendingBytesTracksQueue) {
  WriteQueue queue;
  queue.Push("abc");
  queue.Push("defg");
  EXPECT_EQ(queue.pending_bytes(), 7u);
  EXPECT_EQ(queue.Flush(fds_[0]), WriteQueue::FlushResult::kDrained);
  EXPECT_EQ(queue.pending_bytes(), 0u);
}

TEST_F(WriteQueueTest, ErrorOnClosedPeer) {
  WriteQueue queue;
  ::close(fds_[1]);
  fds_[1] = -1;
  queue.Push("doomed\n");
  // First flush may succeed into the kernel buffer; a later one must
  // surface the dead peer as kError (EPIPE), never SIGPIPE.
  WriteQueue::FlushResult r = queue.Flush(fds_[0]);
  for (int i = 0; i < 10 && r != WriteQueue::FlushResult::kError; ++i) {
    queue.Push("doomed\n");
    r = queue.Flush(fds_[0]);
  }
  EXPECT_EQ(r, WriteQueue::FlushResult::kError);
}

// -- ParseListenAddress ------------------------------------------------------

TEST(ParseListenAddressTest, TcpForms) {
  ListenAddress addr;
  std::string error;
  ASSERT_TRUE(ParseListenAddress("tcp:127.0.0.1:8080", &addr, &error));
  EXPECT_FALSE(addr.is_unix);
  EXPECT_EQ(addr.host, "127.0.0.1");
  EXPECT_EQ(addr.port, 8080);
  ASSERT_TRUE(ParseListenAddress("127.0.0.1:0", &addr, &error));
  EXPECT_EQ(addr.port, 0);
}

TEST(ParseListenAddressTest, UnixForm) {
  ListenAddress addr;
  std::string error;
  ASSERT_TRUE(ParseListenAddress("unix:/tmp/x.sock", &addr, &error));
  EXPECT_TRUE(addr.is_unix);
  EXPECT_EQ(addr.path, "/tmp/x.sock");
}

TEST(ParseListenAddressTest, Malformed) {
  ListenAddress addr;
  std::string error;
  EXPECT_FALSE(ParseListenAddress("unix:", &addr, &error));
  EXPECT_FALSE(ParseListenAddress("justahost", &addr, &error));
  EXPECT_FALSE(ParseListenAddress("tcp:host:", &addr, &error));
  EXPECT_FALSE(ParseListenAddress("tcp:host:notaport", &addr, &error));
  EXPECT_FALSE(ParseListenAddress("tcp:host:70000", &addr, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace semdrift
