#include "src/atropos/capi.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <utility>
#include <vector>

#include "src/atropos/concurrent_frontend.h"

namespace atropos {

namespace {

// Installation state. Written only by InstallGlobalFrontend (setup-time,
// single-threaded by contract) but read from every tracing thread, so the
// pointers are atomics: a stale-but-consistent read is fine, a torn one is
// not. Tracing calls feed `g_frontend`'s rings; setup calls like
// setCancelAction land on the runtime it wraps.
std::atomic<ConcurrentFrontend*> g_frontend{nullptr};
std::atomic<void (*)(uint64_t)> g_cancel_action{nullptr};
// Default resource instances, one per facade type, registered eagerly at
// install (lazy first-use registration would race under multithreaded
// tracing: RegisterResource is a setup-only, unsynchronized call).
std::array<std::atomic<ResourceId>, 3> g_default_resources = {
    kInvalidResourceId, kInvalidResourceId, kInvalidResourceId};

ResourceId DefaultResource(CApiResourceType type) {
  return g_default_resources[static_cast<size_t>(type)].load(std::memory_order_relaxed);
}

// Per-thread attribution state. The paper keys tracing off the calling
// thread; making the current-task slot, scope chain, and retired-handle list
// thread-local realizes exactly that under real threads while degenerating to
// the old process-global behavior in single-threaded use.
//
// The current task is read by every tracing call, so it lives in its own
// trivially destructible, constant-initialized slot that takes no TLS guard.
constinit thread_local Cancellable* t_current = nullptr;

struct ThreadState {
  // The `previous_` pointers held by live CancellableScopes, outermost first.
  // Mirrored here so freeCancel can tell whether a handle is still reachable
  // through a scope restore.
  std::vector<Cancellable*> saved_chain;
  // Handles passed to freeCancel while still referenced by `t_current` or
  // the scope chain. Deleting them eagerly would leave a dangling pointer to be
  // restored at scope exit; instead they stay allocated (their task already
  // freed in the runtime, so tracing counts as ignored_events) until no
  // reference remains.
  std::vector<Cancellable*> zombies;

  // At thread exit every scope has unwound, so nothing references a retired
  // handle anymore.
  ~ThreadState() {
    for (Cancellable* z : zombies) {
      delete z;
    }
  }

  bool Referenced(const Cancellable* c) const {
    if (t_current == c) {
      return true;
    }
    return std::find(saved_chain.begin(), saved_chain.end(), c) != saved_chain.end();
  }

  // Deletes retired handles that no scope or current-task slot references
  // anymore; called at every point a reference can disappear.
  void ReapZombies() {
    for (auto it = zombies.begin(); it != zombies.end();) {
      if (!Referenced(*it)) {
        delete *it;
        it = zombies.erase(it);
      } else {
        ++it;
      }
    }
  }
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

void InstallGlobalFrontend(ConcurrentFrontend* frontend) {
  g_frontend.store(frontend, std::memory_order_release);
  g_cancel_action.store(nullptr, std::memory_order_relaxed);
  t_current = nullptr;
  ThreadState& st = State();
  st.saved_chain.clear();
  st.ReapZombies();  // nothing is referenced now — drops every retired handle
  const std::array<std::pair<const char*, ResourceClass>, 3> defaults = {{
      {"capi_lock", ResourceClass::kLock},
      {"capi_memory", ResourceClass::kMemory},
      {"capi_queue", ResourceClass::kQueue},
  }};
  for (size_t i = 0; i < defaults.size(); i++) {
    g_default_resources[i].store(
        frontend != nullptr ? frontend->RegisterResource(defaults[i].first, defaults[i].second)
                            : kInvalidResourceId,
        std::memory_order_relaxed);
  }
}

ResourceId CApiDefaultResource(CApiResourceType type) { return DefaultResource(type); }

Cancellable* createCancel(uint64_t key) {
  ConcurrentFrontend* frontend = g_frontend.load(std::memory_order_acquire);
  if (frontend == nullptr) {
    return nullptr;
  }
  frontend->OnEvent(TraceEvent::TaskRegistered(key, /*background=*/false, /*cancellable=*/true));
  return new Cancellable{key};
}

void freeCancel(Cancellable* c) {
  if (c == nullptr) {
    return;
  }
  ConcurrentFrontend* frontend = g_frontend.load(std::memory_order_acquire);
  if (frontend != nullptr) {
    frontend->OnEvent(TraceEvent::TaskFreed(c->key));
  }
  ThreadState& st = State();
  if (st.Referenced(c)) {
    // Still the current task or saved by a live scope: retire lazily. The
    // current-task slot is deliberately left pointing at the handle —
    // subsequent tracing reaches the runtime under the freed key and is
    // counted there as ignored_events instead of disappearing without trace.
    if (std::find(st.zombies.begin(), st.zombies.end(), c) == st.zombies.end()) {
      st.zombies.push_back(c);
    }
    return;
  }
  delete c;
}

void setCancelAction(void (*func)(uint64_t)) {
  g_cancel_action.store(func, std::memory_order_release);
  ConcurrentFrontend* frontend = g_frontend.load(std::memory_order_acquire);
  if (frontend != nullptr) {
    frontend->runtime().SetCancelAction([](uint64_t key) {
      void (*action)(uint64_t) = g_cancel_action.load(std::memory_order_acquire);
      if (action != nullptr) {
        action(key);
      }
    });
  }
}

Cancellable* SetCurrentCancellable(Cancellable* c) {
  Cancellable* prev = t_current;
  t_current = c;
  State().ReapZombies();
  return prev;
}

Cancellable* EnterCancellableScope(Cancellable* c) {
  ThreadState& st = State();
  st.saved_chain.push_back(t_current);
  t_current = c;
  return st.saved_chain.back();
}

void ExitCancellableScope(Cancellable* previous) {
  ThreadState& st = State();
  if (!st.saved_chain.empty()) {
    st.saved_chain.pop_back();
  }
  t_current = previous;
  st.ReapZombies();
}

void getResource(long value, CApiResourceType rsc_type) {
  ConcurrentFrontend* frontend = g_frontend.load(std::memory_order_acquire);
  Cancellable* current = t_current;
  if (frontend == nullptr || current == nullptr || value <= 0) {
    return;
  }
  frontend->OnEvent(
      TraceEvent::Get(current->key, DefaultResource(rsc_type), static_cast<uint64_t>(value)));
}

void freeResource(long value, CApiResourceType rsc_type) {
  ConcurrentFrontend* frontend = g_frontend.load(std::memory_order_acquire);
  Cancellable* current = t_current;
  if (frontend == nullptr || current == nullptr || value <= 0) {
    return;
  }
  frontend->OnEvent(
      TraceEvent::Free(current->key, DefaultResource(rsc_type), static_cast<uint64_t>(value)));
}

void slowByResource(long value, CApiResourceType rsc_type) {
  ConcurrentFrontend* frontend = g_frontend.load(std::memory_order_acquire);
  Cancellable* current = t_current;
  if (frontend == nullptr || current == nullptr || value <= 0) {
    return;
  }
  frontend->OnEvent(TraceEvent::Usage(current->key, DefaultResource(rsc_type),
                                      /*waited=*/static_cast<TimeMicros>(value), /*used=*/0));
}

void slowByResourceBegin(CApiResourceType rsc_type) {
  ConcurrentFrontend* frontend = g_frontend.load(std::memory_order_acquire);
  Cancellable* current = t_current;
  if (frontend == nullptr || current == nullptr) {
    return;
  }
  frontend->OnEvent(TraceEvent::WaitBegin(current->key, DefaultResource(rsc_type)));
}

void slowByResourceEnd(CApiResourceType rsc_type) {
  ConcurrentFrontend* frontend = g_frontend.load(std::memory_order_acquire);
  Cancellable* current = t_current;
  if (frontend == nullptr || current == nullptr) {
    return;
  }
  frontend->OnEvent(TraceEvent::WaitEnd(current->key, DefaultResource(rsc_type)));
}

void reportProgress(uint64_t done, uint64_t total) {
  ConcurrentFrontend* frontend = g_frontend.load(std::memory_order_acquire);
  Cancellable* current = t_current;
  if (frontend == nullptr || current == nullptr) {
    return;
  }
  frontend->OnEvent(TraceEvent::Progress(current->key, done, total));
}

}  // namespace atropos
