// Move-only type-erased callable (a minimal std::move_only_function for
// C++20). Scheduler callbacks may capture move-only state, which
// std::function cannot hold. No callback carries a packet any more: a link's
// arrivals and drains are typed events (Scheduler::Target), and the packets
// in flight sit in the link's wire FIFO.
//
// Small-buffer optimised: callables up to kInlineSize bytes that are
// nothrow-move-constructible live inline in the wrapper, so the callbacks the
// simulator schedules — a `this` pointer for TCP timers, generators and
// samplers, a few indices for a routing update — never touch the allocator.
// Larger or throwing-move callables fall back to the heap exactly like the
// old unique_ptr<Base> implementation. Type erasure is a hand-rolled ops
// table (call / relocate / destroy) instead of a virtual base, which also
// lets the wrapper be relocated into a scheduler slot with one indirect call.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace conga::sim {

class UniqueFunction {
 public:
  /// Inline storage size. It was sized for the packet-delivery closure
  /// (`this` plus a pooled packet plus a port index) that typed link events
  /// have since replaced. The largest inline callback scheduled now is a
  /// fabric routing update (`this`, three indices, two links and an epoch).
  /// Whether to shrink it wants a re-profile first. Grow with care: the
  /// scheduler stores one UniqueFunction per slot.
  static constexpr std::size_t kInlineSize = 48;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    using D = std::decay_t<F>;
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &InlineHandler<D>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapHandler<D>::ops;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  void operator()() { ops_->call(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*call)(void* storage);
    /// Move-constructs the payload into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  static constexpr bool kInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  struct InlineHandler {
    static F* get(void* s) { return std::launder(reinterpret_cast<F*>(s)); }
    static void call(void* s) { (*get(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      F* from = get(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void destroy(void* s) noexcept { get(s)->~F(); }
    static constexpr Ops ops{&call, &relocate, &destroy};
  };

  template <typename F>
  struct HeapHandler {
    static F* get(void* s) {
      return *std::launder(reinterpret_cast<F**>(s));
    }
    static void call(void* s) { (*get(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) F*(get(src));  // steal the pointer; F itself stays put
    }
    static void destroy(void* s) noexcept { delete get(s); }
    static constexpr Ops ops{&call, &relocate, &destroy};
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineSize];
};

}  // namespace conga::sim
