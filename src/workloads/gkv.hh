/**
 * @file
 * gkv: a GPU-resident key-value server over TCP + epoll (gnet).
 *
 * The stream-socket analogue of the UDP memcached study: each server
 * work-group owns a listening socket and an epoll instance and
 * multiplexes many connections — the listen socket is level-
 * triggered, every accepted connection is registered edge-triggered,
 * and each edge is drained to -EAGAIN with zero-copy
 * recvmsg(MSG_ZEROCOPY | MSG_DONTWAIT). Requests are parsed by a
 * per-connection state machine directly out of the loaned wire
 * segments (frames may split across segments once clients pipeline),
 * and the replies for a drain are sent as one batched writev. All of
 * it travels through GENESYS syscall slots, so a quiet server
 * work-group halts in epoll_wait and is resumed by the normal
 * doorbell machinery when a connection or a request arrives.
 *
 * The host-side load generator drives the modeled wire with a
 * configurable connection count, GET/SET mix, per-request think time,
 * and a pipelining window: each connection keeps up to pipelineDepth
 * requests in flight, writing each refill as one batched request
 * train and parsing replies zero-copy off the segment chain.
 *
 * The same server logic runs on CPU threads (useGpu = false) for the
 * fig15-style comparison.
 */

#ifndef GENESYS_WORKLOADS_GKV_HH
#define GENESYS_WORKLOADS_GKV_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/system.hh"
#include "support/stats.hh"

namespace genesys::workloads
{

/** Binary wire ops (one per fixed-size frame). */
enum class GkvOp : std::uint32_t
{
    Get = 1,
    Set = 2,
    Reply = 3,
    Miss = 4,
};

/**
 * Fixed-size frame: 16-byte header + valueBytes payload, both
 * directions (GET requests carry a dead payload so every request is
 * exactly one frame). A frame fits under the TCP MSS, but pipelined
 * request trains and batched reply writes pack frames back to back
 * into MSS-sized segments, so receivers must reassemble frames that
 * straddle segment boundaries. GkvFrame is the header; SET and Reply
 * payloads are the value its (key, version) names, others are zeros.
 */
struct GkvFrame
{
    GkvOp op = GkvOp::Get;
    std::uint32_t key = 0;
    std::uint64_t version = 0;
};

inline constexpr std::uint32_t kGkvHeaderBytes = 16;
/** First server port; group g listens on kGkvBasePort + g. */
inline constexpr std::uint16_t kGkvBasePort = 9100;

/** Write @p frame and its payload into the kGkvHeaderBytes +
 *  @p value_bytes bytes at @p wire. */
void gkvEncode(const GkvFrame &frame, std::uint8_t *wire,
               std::uint32_t value_bytes);
/** The header of the frame at @p wire; nullopt if malformed. */
std::optional<GkvFrame> gkvDecode(const std::uint8_t *wire,
                                  std::size_t len);

/**
 * True when the frame at @p wire is a Reply for @p key whose payload is
 * exactly the value its (key, version) names, checked in place.
 */
bool gkvReplyValid(const std::uint8_t *wire, std::uint32_t key,
                   std::uint32_t value_bytes);

/** Versioned store shared by CPU and GPU servers. */
class GkvStore
{
  public:
    GkvStore(std::uint32_t num_keys, std::uint32_t value_bytes);

    std::uint32_t numKeys() const
    {
        return static_cast<std::uint32_t>(versions_.size());
    }
    std::uint32_t valueBytes() const { return valueBytes_; }

    void set(std::uint32_t key, std::uint64_t version);
    std::uint64_t version(std::uint32_t key) const
    {
        return versions_[key];
    }

  private:
    std::uint32_t valueBytes_;
    std::vector<std::uint64_t> versions_;
};

struct GkvConfig
{
    std::uint32_t numConnections = 4; ///< load-generator connections
    std::uint32_t requestsPerConn = 8;
    std::uint32_t numKeys = 64;
    std::uint32_t valueBytes = 256; ///< frame = 16 + valueBytes
    double setFraction = 0.25;      ///< request mix
    Tick thinkNs = 1000;            ///< per-request client think time
    bool useGpu = true;
    std::uint32_t serverGroups = 2; ///< listen sockets / epoll loops
    /** Client requests kept in flight per connection; each window
     *  refill is one batched write, so depth > 1 makes frames span
     *  wire segments and exercises the split-frame parse path. */
    std::uint32_t pipelineDepth = 1;
};

struct GkvResult
{
    Tick elapsed = 0;
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t accepted = 0;
    bool correct = false; ///< every reply verified, all conns served
    double p50LatencyUs = 0.0;
    double p95LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double throughputKops = 0.0;
};

GkvResult runGkv(core::System &sys, const GkvConfig &config);

} // namespace genesys::workloads

#endif // GENESYS_WORKLOADS_GKV_HH
