/**
 * @file
 * Lazy coroutine task with symmetric transfer.
 *
 * Task<T> is the unit of concurrency in the simulator: a wavefront, a
 * CPU core loop, an OS worker thread, a memcached client — each is a
 * coroutine returning Task<>. Tasks are lazy (nothing runs until they
 * are awaited or spawned as a root via Sim::spawn) and propagate both
 * values and exceptions to their awaiter.
 */

#ifndef GENESYS_SIM_TASK_HH
#define GENESYS_SIM_TASK_HH

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "support/logging.hh"

namespace genesys::sim
{

template <typename T = void>
class Task;

namespace detail
{

template <typename T>
struct PromiseOf;

/** Promise state and protocol shared by every Task<T>. */
template <typename T>
struct PromiseBase
{
    std::coroutine_handle<> continuation;
    std::exception_ptr error;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            // Resume whoever co_awaited us; if nobody did (detached
            // completion), park on the noop coroutine.
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    Task<T>
    get_return_object()
    {
        return Task<T>(std::coroutine_handle<PromiseOf<T>>::from_promise(
            static_cast<PromiseOf<T> &>(*this)));
    }

    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { error = std::current_exception(); }
};

template <typename T>
struct PromiseOf : PromiseBase<T>
{
    std::optional<T> value;

    template <typename U>
    void
    return_value(U &&v)
    {
        value.emplace(std::forward<U>(v));
    }
};

template <>
struct PromiseOf<void> : PromiseBase<void>
{
    void return_void() {}
};

/**
 * Handle ownership and the awaiter protocol shared by Task<T> and
 * Task<void>: `co_await task` starts the task and suspends the awaiter
 * until the task finishes.
 */
template <typename T>
class TaskBase
{
  public:
    using Handle = std::coroutine_handle<PromiseOf<T>>;

    TaskBase() = default;
    explicit TaskBase(Handle h) : handle_(h) {}
    TaskBase(TaskBase &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}
    TaskBase &
    operator=(TaskBase &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }
    TaskBase(const TaskBase &) = delete;
    TaskBase &operator=(const TaskBase &) = delete;
    ~TaskBase() { destroy(); }

    bool await_ready() const noexcept { return !handle_ || handle_.done(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> cont) noexcept
    {
        handle_.promise().continuation = cont;
        return handle_;
    }

  protected:
    /** The finished task's promise; rethrows its exception, if any. */
    PromiseOf<T> &
    finished()
    {
        auto &p = handle_.promise();
        if (p.error)
            std::rethrow_exception(p.error);
        return p;
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    Handle handle_ = nullptr;
};

} // namespace detail

/** A lazily-started coroutine producing a T (or void). */
template <typename T>
class [[nodiscard]] Task : public detail::TaskBase<T>
{
  public:
    using promise_type = detail::PromiseOf<T>;
    using detail::TaskBase<T>::TaskBase;

    T
    await_resume()
    {
        auto &p = this->finished();
        GENESYS_ASSERT(p.value.has_value(), "task finished without value");
        return std::move(*p.value);
    }
};

/** void specialization. */
template <>
class [[nodiscard]] Task<void> : public detail::TaskBase<void>
{
  public:
    using promise_type = detail::PromiseOf<void>;
    using TaskBase::TaskBase;

    void await_resume() { finished(); }
};

} // namespace genesys::sim

#endif // GENESYS_SIM_TASK_HH
