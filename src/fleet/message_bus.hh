/**
 * @file
 * The fleet layer's telemetry bus: one channel per telemetry message.
 *
 * A FleetArbiter (fleet/fleet_arbiter.hh) publishes every grant and
 * every shed request on the MessageBus it is built with; a sink that
 * wants them (runFleet's FleetResult::busGrants/busSheds cross-check)
 * subscribes a handler before the run. Nothing in the arbiter listens:
 * it is one arbiter over all of its streams, so the bus carries only
 * telemetry. Publishing to a channel nobody subscribed to loops over no
 * handlers, so the per-grant publish stays cheap when no sink listens.
 *
 * Everything is single-threaded by design: one FleetArbiter lives on
 * one simulation thread (shard parallelism happens at the
 * SweepExecutor level, one fleet per task), so no locking.
 */

#ifndef PVA_FLEET_MESSAGE_BUS_HH
#define PVA_FLEET_MESSAGE_BUS_HH

#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

namespace pva::fleet
{

/** One request granted to the memory system. */
struct GrantEvent
{
    unsigned tenant;
    unsigned stream; ///< Tenant-local stream index
    std::uint64_t waited; ///< Queueing delay at grant (cycles)
};

/** One request shed. */
struct ShedEvent
{
    unsigned tenant;
    unsigned stream;  ///< Tenant-local stream index
    bool deadline;    ///< true = deadline shed, false = overload shed
};

/** Subscribers of one message type, invoked in subscription order. */
template <typename Message>
class Channel
{
  public:
    using Handler = std::function<void(const Message &)>;

    void subscribe(Handler handler)
    {
        handlers.push_back(std::move(handler));
    }

    void publish(const Message &msg) const
    {
        for (const Handler &h : handlers)
            h(msg);
    }

  private:
    std::vector<Handler> handlers;
};

/** The telemetry channels, one per message type above. */
class MessageBus
{
  public:
    template <typename Message>
    Channel<Message> &channel()
    {
        return std::get<Channel<Message>>(channels);
    }

    MessageBus() = default;
    MessageBus(const MessageBus &) = delete;
    MessageBus &operator=(const MessageBus &) = delete;

  private:
    std::tuple<Channel<GrantEvent>, Channel<ShedEvent>> channels;
};

} // namespace pva::fleet

#endif // PVA_FLEET_MESSAGE_BUS_HH
