#include "sim/proc.hh"

#include "sim/simulation.hh"
#include "sim/sync.hh"

namespace cg::sim {

Process::Process(Simulation& sim, Dispatcher& disp, std::string name,
                 Proc<void>&& top)
    : sim_(sim),
      queue_(sim.queue()),
      disp_(&disp),
      name_(std::move(name)),
      top_(top.release()),
      doneNotify_(std::make_unique<Notify>())
{
    CG_ASSERT(top_, "spawning an empty Proc");
    top_.promise().proc = this;
    resumePoint_ = top_;
}

Process::~Process()
{
    if (top_) {
        top_.destroy();
        top_ = {};
    }
}

void
Process::suspendAt(std::coroutine_handle<> h)
{
    CG_ASSERT(state_ == State::Running || state_ == State::Ready,
              "process '%s' suspending in state %d", name_.c_str(),
              static_cast<int>(state_));
    resumePoint_ = h;
    state_ = State::Blocked;
}

void
Process::wake()
{
    if (state_ != State::Blocked)
        return;
    state_ = State::Ready;
    disp_->wake(*this);
}

void
Process::resumeNow()
{
    CG_ASSERT(state_ == State::Ready,
              "resuming process '%s' in state %d", name_.c_str(),
              static_cast<int>(state_));
    CG_ASSERT(resumePoint_, "process '%s' has no resume point",
              name_.c_str());
    state_ = State::Running;
    auto rp = resumePoint_;
    resumePoint_ = {};
    rp.resume();
    // After resume() returns the coroutine either suspended again
    // (state_ == Blocked, set via suspendAt), finished (state_ == Done,
    // set via onTopDone), or a kill was requested from within.
    if (killRequested_ && state_ != State::Done)
        finish();
    else if (state_ == State::Running)
        state_ = State::Blocked; // defensive; should not happen
}

void
Process::onTopDone()
{
    if (top_.promise().exception) {
        try {
            std::rethrow_exception(top_.promise().exception);
        } catch (const std::exception& e) {
            panic("uncaught exception in process '%s': %s", name_.c_str(),
                  e.what());
        } catch (...) {
            panic("uncaught exception in process '%s'", name_.c_str());
        }
    }
    finish();
}

void
Process::finish()
{
    if (state_ == State::Done)
        return;
    state_ = State::Done;
    if (pendingEvent_ != invalidEventId) {
        sim_.queue().cancel(pendingEvent_);
        pendingEvent_ = invalidEventId;
    }
    if (waitingOn_) {
        waitingOn_->unlink(*this);
        waitingOn_ = nullptr;
    }
    disp_->detach(*this);
    doneNotify_->notifyAll();
}

void
Process::kill()
{
    if (state_ == State::Done)
        return;
    if (state_ == State::Running) {
        // Killed from inside its own call chain: defer until the
        // coroutine next suspends.
        killRequested_ = true;
        return;
    }
    // Destroy the coroutine frames first (legal: it is suspended).
    // Locals in the frames may own child Procs, which cascade.
    if (top_ && !top_.done()) {
        top_.destroy();
        top_ = {};
    }
    finish();
}

Notify&
Process::doneNotify()
{
    return *doneNotify_;
}

void
Delay::sleepProcess(Process& p, Tick amount)
{
    EventQueue& q = p.simulation().queue();
    const EventId id = q.scheduleIn(amount, [&p] {
        p.setPendingEvent(invalidEventId);
        p.wake();
    });
    p.setPendingEvent(id);
    p.dispatcher().blocked(p);
}

void
FreeDispatcher::compute(Process& p, Tick amount)
{
    // Free-running processes have exclusive CPU: compute == delay.
    const EventId id = queue_.scheduleIn(amount, [&p] {
        p.setPendingEvent(invalidEventId);
        p.wake();
    });
    p.setPendingEvent(id);
}

void
FreeDispatcher::blocked(Process& p)
{
    (void)p; // nothing to do: resumption is driven by wake()
}

void
FreeDispatcher::wake(Process& p)
{
    // Resume from event context at the current instant (never recurse
    // into the waker's stack).
    queue_.scheduleIn(0, [&p] {
        if (p.state() == Process::State::Ready)
            p.resumeNow();
    });
}

void
FreeDispatcher::detach(Process& p)
{
    (void)p;
}

bool
FreeDispatcher::runAhead(Process& p, Tick amount, bool cpu)
{
    // A Compute and a Delay both end in the same two events: the timer
    // wakes the process, and wake()'s event resumes it with nothing
    // after resumeNow(). Only that wake event ever resumes a free
    // process, so the event running it now has the same empty epilogue
    // as the two skipped ones.
    (void)p;
    (void)cpu;
    return queue_.runAhead(queue_.now() + amount);
}

} // namespace cg::sim
