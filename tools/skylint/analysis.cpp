// The scheduling- and lock-discipline rules.
//
// R1 tls-across-switch   A TLS-derived address must not be live across a
//                        call into the may-context-switch set: after the
//                        switch the uthread may run on a different pthread,
//                        where the cached address names the wrong thread's
//                        state. (PR 2: errno-location CSE in the signal
//                        handler.)
// R2 preempt-balance     Every preempt_disable-style increment must be
//                        matched on every exit path. (PR 2: preempt-guard
//                        drift across migration.) PreemptDepthInc/Dec
//                        calls count like the counters' fetch_add/sub.
// R3 signal-unsafe-call  Functions transitively reachable from the
//                        preemption signal handler (SKYLOFT_SIGNAL_SAFE
//                        roots) must not allocate, lock, or touch stdio.
//                        (PR 2: glibc tcache corruption under preemption.)
// R4 switch-in-noswitch  A SKYLOFT_NO_SWITCH function must not transitively
//                        reach a switch primitive (shard locks held across
//                        a context switch deadlock the worker).
//
// Lock-discipline rules (skylint v2). Per-function lock summaries — the set
// of lock classes a call net-acquires/releases — are seeded by
// SKYLOFT_ACQUIRES/RELEASES annotations and derived for unannotated bodies
// by a bounded interprocedural fixpoint; std::lock_guard/unique_lock/
// scoped_lock declarations and annotated RAII guard constructors are modeled
// as scope-bound acquires.
//
// R5 lock-held-across-switch  A lock class is held at a call into the
//                        may-switch closure: the uthread can park holding a
//                        spinlock, stalling every spinner until it is
//                        rescheduled (the PR 6 tail-amplifier shape).
//                        Callees that SKYLOFT_REQUIRES the held lock are
//                        exempt — the condvar-wait pattern releases it
//                        itself before parking.
// R6 lock-order-cycle    The static acquired-while-holding graph over all
//                        lock classes has a cycle; each edge's first witness
//                        site is reported with the cycle.
// R7 blocking-call-on-worker  A raw blocking syscall (nanosleep/poll/
//                        futex-wait shapes), or a SKYLOFT_BLOCKING helper,
//                        is reachable from WorkerLoop/engine poll paths. A
//                        blocked worker pthread stalls every uthread it
//                        hosts. fd reads/writes are sanctioned when the
//                        same body parks through WaitForReadable/
//                        WaitForWritable (the drain-until-EAGAIN pattern on
//                        O_NONBLOCK sockets).
// R8 lock-requires-unheld  A SKYLOFT_REQUIRES(l) function is called at a
//                        site where `l` is not visibly held.
//
// The may-switch and signal-safe sets are fixpoints over a name-resolved
// call graph seeded by the annotations in src/base/compiler.h. Name-based
// resolution over-approximates (every function with a matching unqualified
// name is a candidate callee); suppressions exist for the residue. The lock
// walk is linear per body (no branch sensitivity): an early-return arm that
// releases a lock under-approximates the fall-through path, which the
// fixture corpus and suppressions cover.
#include "tools/skylint/analysis.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>

namespace skylint {

namespace {

const std::set<std::string>& CallKeywords() {
  static const std::set<std::string> kw = {
      "if",     "for",     "while",   "switch",       "return",     "sizeof",
      "alignof", "alignas", "decltype", "typeid",     "static_assert", "catch",
      "throw",  "new",     "delete",  "co_await",     "co_return",  "co_yield",
      "assert", "defined", "not",     "and",          "or",
      "SKYLOFT_MAY_SWITCH", "SKYLOFT_NO_SWITCH", "SKYLOFT_SIGNAL_SAFE",
      "SKYLOFT_RETURNS_TLS", "SKYLOFT_BLOCKING", "SKYLOFT_ACQUIRES",
      "SKYLOFT_RELEASES", "SKYLOFT_REQUIRES",
  };
  return kw;
}

// RAII lock holders from <mutex>/<shared_mutex>: `std::lock_guard<M> g(mu);`
// acquires at the declaration and releases at the enclosing scope's end.
const std::set<std::string>& GuardTemplates() {
  static const std::set<std::string> g = {"lock_guard", "unique_lock", "scoped_lock",
                                          "shared_lock"};
  return g;
}

// Syscalls/library calls that block the calling pthread unconditionally.
// A worker that enters one of these stalls every uthread it hosts; the
// runtime's sanctioned waits (WaitForReadable/WaitForWritable, Park,
// SleepFor) park the uthread instead.
const std::set<std::string>& UnconditionalBlocking() {
  static const std::set<std::string> deny = {
      "nanosleep", "clock_nanosleep", "usleep",      "sleep",       "sleep_for",
      "sleep_until", "poll",          "ppoll",       "select",      "pselect",
      "epoll_wait", "epoll_pwait",    "sigwait",     "sigwaitinfo", "sigtimedwait",
      "pause",      "pthread_join",   "pthread_cond_wait", "pthread_cond_timedwait",
      "waitpid",    "wait4",          "system",      "flock",       "fsync",
      "fdatasync",  "msync",
  };
  return deny;
}

// fd I/O that blocks only on a blocking-mode fd. Sanctioned when the same
// body parks through WaitForReadable/WaitForWritable — the engine contract
// puts every registered fd in O_NONBLOCK and the call sits in a
// drain-until-EAGAIN loop around the park.
const std::set<std::string>& FdBlocking() {
  static const std::set<std::string> deny = {
      "read",  "pread",  "readv",  "recv",  "recvfrom", "recvmsg", "write",
      "pwrite", "writev", "send",  "sendto", "sendmsg",  "accept",  "accept4",
      "connect",
  };
  return deny;
}

// Names that are never async-signal-safe: allocation, stdio, locking, and
// this repo's logging macros (they expand to stdio + abort).
const std::set<std::string>& SignalDenylist() {
  static const std::set<std::string> deny = {
      "malloc",       "calloc",     "realloc",   "free",       "posix_memalign",
      "aligned_alloc", "strdup",    "make_unique", "make_shared",
      "printf",       "fprintf",    "sprintf",   "snprintf",   "vprintf",
      "vfprintf",     "vsnprintf",  "puts",      "fputs",      "putchar",
      "fputc",        "fwrite",     "fread",     "fopen",      "fclose",
      "fflush",       "fgets",      "scanf",     "fscanf",
      "pthread_mutex_lock", "pthread_mutex_unlock", "pthread_cond_wait",
      "pthread_cond_signal", "pthread_cond_broadcast", "pthread_rwlock_rdlock",
      "pthread_rwlock_wrlock", "lock_guard", "unique_lock", "scoped_lock",
      "shared_lock",  "lock",      "syslog",    "exit",
      "SKYLOFT_LOG",  "SKYLOFT_CHECK", "SKYLOFT_DCHECK",
  };
  return deny;
}

bool HasAnyAnnotation(const Annotations& a) {
  return a.may_switch || a.no_switch || a.signal_safe || a.returns_tls || a.blocking ||
         !a.acquires.empty() || !a.releases.empty() || !a.requires_held.empty();
}

}  // namespace

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> rules = {
      "tls-across-switch",      "preempt-balance",  "signal-unsafe-call",
      "switch-in-noswitch",     "lock-held-across-switch", "lock-order-cycle",
      "blocking-call-on-worker", "lock-requires-unheld"};
  return rules;
}

void Analyzer::AddFile(FileTokens file) { files_.push_back(std::move(file)); }

void Analyzer::ExtractAll() {
  // Parse every file, keeping all definitions. Declarations are kept only
  // when no definition with the same qualified name exists — they act as
  // call-graph leaves (e.g. skyloft_ctx_switch, defined in assembly) and as
  // annotation carriers (merged below).
  std::vector<Function> decls;
  for (std::size_t f = 0; f < files_.size(); f++) {
    ParsedFile parsed = ParseFile(files_[f], static_cast<int>(f));
    tls_variables_.insert(parsed.tls_variables.begin(), parsed.tls_variables.end());
    for (Function& fn : parsed.functions) {
      (fn.has_body ? functions_ : decls).push_back(std::move(fn));
    }
  }
  std::set<std::string> defined;
  for (const Function& fn : functions_) defined.insert(fn.qualified);
  std::set<std::string> kept_decls;
  for (Function& fn : decls) {
    const bool keep = defined.count(fn.qualified) == 0 && kept_decls.insert(fn.qualified).second;
    if (keep) {
      functions_.push_back(std::move(fn));
    } else if (HasAnyAnnotation(fn.ann)) {
      // Annotation on a dropped declaration still applies (merged next).
      functions_.push_back(std::move(fn));
      functions_.back().has_body = false;
      functions_.back().body_begin = functions_.back().body_end = 0;
    }
  }

  // Call sites for every definition.
  const auto& kw = CallKeywords();
  for (Function& fn : functions_) {
    if (!fn.has_body) continue;
    const auto& toks = files_[static_cast<std::size_t>(fn.file)].tokens;
    for (int p = fn.body_begin; p + 1 < fn.body_end; p++) {
      const Token& t = toks[static_cast<std::size_t>(p)];
      if (t.kind != Tok::kIdent || kw.count(t.text) != 0) continue;
      if (toks[static_cast<std::size_t>(p + 1)].text != "(") continue;
      fn.calls.push_back(CallSite{t.text, t.line, p});
    }
  }
}

void Analyzer::MergeAnnotations() {
  std::map<std::string, Annotations> merged;
  for (const Function& fn : functions_) merged[fn.qualified].Merge(fn.ann);
  for (Function& fn : functions_) fn.ann = merged[fn.qualified];
  // Annotation-carrying duplicate declarations have served their purpose;
  // drop them so every remaining entry is a definition or a unique leaf.
  std::set<std::string> seen;
  std::vector<Function> out;
  for (Function& fn : functions_) {
    if (fn.has_body || seen.insert(fn.qualified).second) out.push_back(std::move(fn));
  }
  functions_ = std::move(out);
}

void Analyzer::BuildCallGraph() {
  by_name_.clear();
  for (std::size_t i = 0; i < functions_.size(); i++) {
    by_name_[functions_[i].simple].push_back(static_cast<int>(i));
  }
  callees_.assign(functions_.size(), {});
  for (std::size_t i = 0; i < functions_.size(); i++) {
    std::set<int> targets;
    for (const CallSite& cs : functions_[i].calls) {
      auto it = by_name_.find(cs.name);
      if (it == by_name_.end()) continue;
      for (int t : it->second) {
        if (t != static_cast<int>(i)) targets.insert(t);
      }
    }
    callees_[i].assign(targets.begin(), targets.end());
  }
}

void Analyzer::ComputeMaySwitch() {
  // Fixpoint: a function may switch if annotated SKYLOFT_MAY_SWITCH or if it
  // calls a may-switch function. SKYLOFT_NO_SWITCH is a propagation barrier:
  // a violating no-switch function is reported once by R4 instead of
  // cascading may-switch into every caller.
  may_switch_.assign(functions_.size(), false);
  for (std::size_t i = 0; i < functions_.size(); i++) {
    may_switch_[i] = functions_[i].ann.may_switch;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < functions_.size(); i++) {
      if (may_switch_[i] || functions_[i].ann.no_switch) continue;
      for (int c : callees_[i]) {
        if (may_switch_[static_cast<std::size_t>(c)]) {
          may_switch_[i] = true;
          changed = true;
          break;
        }
      }
    }
  }
}

void Analyzer::ComputeSignalClosure() {
  signal_safe_.assign(functions_.size(), false);
  signal_parent_.assign(functions_.size(), -1);
  std::deque<int> work;
  for (std::size_t i = 0; i < functions_.size(); i++) {
    if (functions_[i].ann.signal_safe) {
      signal_safe_[i] = true;
      work.push_back(static_cast<int>(i));
    }
  }
  while (!work.empty()) {
    const int cur = work.front();
    work.pop_front();
    for (int c : callees_[static_cast<std::size_t>(cur)]) {
      if (!signal_safe_[static_cast<std::size_t>(c)]) {
        signal_safe_[static_cast<std::size_t>(c)] = true;
        signal_parent_[static_cast<std::size_t>(c)] = cur;
        work.push_back(c);
      }
    }
  }
}

void Analyzer::ComputeWorkerClosure() {
  // Everything a runtime worker's scheduler loop or any uthread body can
  // reach: forward-reachable from WorkerLoop and from the may-switch set
  // (may-switch code by definition executes on a worker; the engine poll
  // paths hang off WorkerLoop itself).
  on_worker_.assign(functions_.size(), false);
  worker_parent_.assign(functions_.size(), -1);
  std::deque<int> work;
  for (std::size_t i = 0; i < functions_.size(); i++) {
    if (functions_[i].simple == "WorkerLoop" || may_switch_[i]) {
      on_worker_[i] = true;
      work.push_back(static_cast<int>(i));
    }
  }
  while (!work.empty()) {
    const int cur = work.front();
    work.pop_front();
    for (int c : callees_[static_cast<std::size_t>(cur)]) {
      if (!on_worker_[static_cast<std::size_t>(c)]) {
        on_worker_[static_cast<std::size_t>(c)] = true;
        worker_parent_[static_cast<std::size_t>(c)] = cur;
        work.push_back(c);
      }
    }
  }
}

std::string Analyzer::WorkerPath(int fn) const {
  std::string via = functions_[static_cast<std::size_t>(fn)].simple;
  for (int p = worker_parent_[static_cast<std::size_t>(fn)]; p >= 0;
       p = worker_parent_[static_cast<std::size_t>(p)]) {
    via = functions_[static_cast<std::size_t>(p)].simple + " -> " + via;
  }
  return via;
}

std::string Analyzer::GuardLockName(int fn, const std::string& last_ident) const {
  // Qualify a lock_guard argument's terminal identifier by the enclosing
  // class so `mu_` in MetricsRegistry and HostSched stays two lock classes.
  // Namespace components carry no instance identity and are stripped.
  static const std::set<std::string> ns = {"skyloft", "std", "detail", "internal", "<anon>"};
  const std::string& q = functions_[static_cast<std::size_t>(fn)].qualified;
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t at; (at = q.find("::", start)) != std::string::npos; start = at + 2) {
    parts.push_back(q.substr(start, at - start));
  }
  // The function name itself (after the last ::) is intentionally excluded.
  std::string scope;
  for (const std::string& p : parts) {
    if (ns.count(p) != 0) continue;
    if (!scope.empty()) scope += "::";
    scope += p;
  }
  return scope.empty() ? last_ident : scope + "::" + last_ident;
}

Analyzer::LockSummary Analyzer::WalkLocks(int fn_index, bool report) {
  const Function& fn = functions_[static_cast<std::size_t>(fn_index)];
  LockSummary net;
  if (!fn.has_body) return net;
  const auto& toks = files_[static_cast<std::size_t>(fn.file)].tokens;
  auto text = [&](int p) -> const std::string& { return toks[static_cast<std::size_t>(p)].text; };
  auto line_of = [&](int p) { return toks[static_cast<std::size_t>(p)].line; };
  auto is_ident = [&](int p) {
    return p < fn.body_end && toks[static_cast<std::size_t>(p)].kind == Tok::kIdent;
  };

  const std::set<std::string>& entry = fn.ann.requires_held;
  std::map<std::string, int> held;   // lock class -> acquire line
  std::set<std::string> released;    // net releases of locks acquired elsewhere
  std::set<std::string> ever_held;   // held at any point of this walk
  for (const std::string& l : entry) {
    held[l] = fn.line;
    ever_held.insert(l);
  }

  // Locks owned by an RAII guard in each open scope; scope 0 is the body.
  std::vector<std::vector<std::string>> scopes(1);

  std::map<int, const CallSite*> call_at;
  for (const CallSite& cs : fn.calls) call_at[cs.pos] = &cs;

  auto acquire = [&](const std::string& l, int line, bool scoped) {
    if (report) {
      for (const auto& h : held) {
        if (h.first == l) continue;
        auto key = std::make_pair(h.first, l);
        if (lock_edges_.find(key) == lock_edges_.end()) {
          lock_edges_[key] = LockEdge{fn.file, line};
        }
      }
    }
    if (released.count(l) != 0) {
      released.erase(l);  // reacquired what this body released: net zero
    }
    if (held.find(l) == held.end()) held[l] = line;
    ever_held.insert(l);
    if (scoped) scopes.back().push_back(l);
  };
  auto release = [&](const std::string& l) {
    // A release of a lock this body never held releases the *caller's* lock
    // (an unlock helper). A second release on another control-flow path of a
    // lock already acquired-and-released here is linear-walk residue, not a
    // caller-visible effect.
    if (held.erase(l) == 0 && ever_held.count(l) == 0) released.insert(l);
  };

  // Just past the matching closer of a <...> group opening at p.
  auto skip_angles = [&](int p) {
    int depth = 0;
    for (; p < fn.body_end; p++) {
      if (text(p) == "<") depth++;
      if (text(p) == ">" && --depth == 0) return p + 1;
      if (text(p) == ";") break;  // bail on a stray comparison
    }
    return p;
  };

  int p = fn.body_begin;
  while (p < fn.body_end) {
    const std::string& s = text(p);
    if (s == "{") {
      scopes.emplace_back();
      p++;
      continue;
    }
    if (s == "}") {
      for (const std::string& l : scopes.back()) held.erase(l);
      if (scopes.size() > 1) scopes.pop_back();
      p++;
      continue;
    }
    // `std::lock_guard<std::mutex> g(expr);` — scope-bound acquire of the
    // lock class named by expr's last identifier, class-qualified.
    if (is_ident(p) && GuardTemplates().count(s) != 0 && p + 1 < fn.body_end &&
        text(p + 1) == "<") {
      int q = skip_angles(p + 1);
      if (is_ident(q) && q + 1 < fn.body_end && text(q + 1) == "(") {
        const int open_line = line_of(q);
        int depth = 0;
        std::string last;
        std::vector<std::string> args;  // scoped_lock(a, b) takes several
        int r = q + 1;
        for (; r < fn.body_end; r++) {
          if (text(r) == "(") {
            if (++depth == 1) continue;
          }
          if (text(r) == ")" && --depth == 0) break;
          if (depth == 1 && text(r) == ",") {
            if (!last.empty()) args.push_back(last);
            last.clear();
            continue;
          }
          if (toks[static_cast<std::size_t>(r)].kind == Tok::kIdent) last = text(r);
        }
        if (!last.empty()) args.push_back(last);
        for (const std::string& a : args) {
          acquire(GuardLockName(fn_index, a), open_line, /*scoped=*/true);
        }
        p = r + 1;
        continue;
      }
      p = q;
      continue;
    }
    // `GuardType g(expr);` where GuardType's constructor is annotated
    // SKYLOFT_ACQUIRES — e.g. UthreadMutexGuard.
    if (is_ident(p) && is_ident(p + 1) && p + 2 < fn.body_end && text(p + 2) == "(" &&
        call_at.find(p) == call_at.end()) {
      std::set<std::string> ctor_acquires;
      auto it = by_name_.find(s);
      if (it != by_name_.end()) {
        for (int c : it->second) {
          const Function& g = functions_[static_cast<std::size_t>(c)];
          if (g.simple == s && !g.ann.acquires.empty()) {
            ctor_acquires.insert(g.ann.acquires.begin(), g.ann.acquires.end());
          }
        }
      }
      if (!ctor_acquires.empty()) {
        for (const std::string& l : ctor_acquires) {
          acquire(l, line_of(p), /*scoped=*/true);
        }
        p += 2;
        continue;
      }
    }
    // Ordinary call site: apply the callee's summary (union over name
    // candidates) and run the call-sensitive rules.
    auto cit = call_at.find(p);
    if (cit != call_at.end()) {
      const CallSite& cs = *cit->second;
      std::set<std::string> uacq, urel, req_union;
      std::set<std::string> req_intersect;
      bool first_candidate = true;
      auto it = by_name_.find(cs.name);
      if (it != by_name_.end()) {
        for (int c : it->second) {
          const Function& g = functions_[static_cast<std::size_t>(c)];
          const LockSummary& sum = summaries_[static_cast<std::size_t>(c)];
          uacq.insert(sum.acquires.begin(), sum.acquires.end());
          urel.insert(sum.releases.begin(), sum.releases.end());
          req_union.insert(g.ann.requires_held.begin(), g.ann.requires_held.end());
          if (first_candidate) {
            req_intersect = g.ann.requires_held;
            first_candidate = false;
          } else {
            std::set<std::string> keep;
            for (const std::string& l : req_intersect) {
              if (g.ann.requires_held.count(l) != 0) keep.insert(l);
            }
            req_intersect = std::move(keep);
          }
        }
      }
      if (report) {
        // R8: every candidate demands these locks (intersection, so a name
        // collision with an unannotated function disables the check rather
        // than spraying false positives).
        for (const std::string& l : req_intersect) {
          if (held.find(l) == held.end()) {
            Report(fn_index, cs.line, "lock-requires-unheld",
                   "'" + cs.name + "' requires lock class '" + l +
                       "' (SKYLOFT_REQUIRES), which is not held here");
          }
        }
        // R5: held across a may-switch call. Callees that REQUIRE or
        // RELEASE the lock handle it themselves (condvar wait / unlock).
        if (!held.empty() && CallMaySwitch(cs)) {
          for (const auto& h : held) {
            if (req_union.count(h.first) != 0 || urel.count(h.first) != 0) continue;
            Report(fn_index, cs.line, "lock-held-across-switch",
                   "lock class '" + h.first + "' (acquired line " + std::to_string(h.second) +
                       ") is held across call to '" + cs.name +
                       "', which may context-switch — a parked uthread would hold it "
                       "across the switch");
          }
        }
      }
      for (const std::string& l : uacq) acquire(l, cs.line, /*scoped=*/false);
      for (const std::string& l : urel) release(l);
      p++;
      continue;
    }
    p++;
  }

  // Remaining RAII guards release at function exit.
  for (const auto& scope : scopes) {
    for (const std::string& l : scope) held.erase(l);
  }
  for (const auto& h : held) {
    if (entry.count(h.first) == 0) net.acquires.insert(h.first);
  }
  for (const std::string& l : entry) {
    if (held.find(l) == held.end()) net.releases.insert(l);
  }
  net.releases.insert(released.begin(), released.end());
  return net;
}

void Analyzer::ComputeLockSummaries() {
  summaries_.assign(functions_.size(), LockSummary{});
  // Annotated functions are authoritative (their bodies implement the lock
  // with raw atomics the walk cannot see); unannotated bodies derive their
  // summary from callees, iterated to a bounded fixpoint.
  for (std::size_t i = 0; i < functions_.size(); i++) {
    if (functions_[i].ann.HasLockAnnotation()) {
      summaries_[i].acquires = functions_[i].ann.acquires;
      summaries_[i].releases = functions_[i].ann.releases;
    }
  }
  for (int round = 0; round < 10; round++) {
    bool changed = false;
    for (std::size_t i = 0; i < functions_.size(); i++) {
      if (functions_[i].ann.HasLockAnnotation() || !functions_[i].has_body) continue;
      LockSummary s = WalkLocks(static_cast<int>(i), /*report=*/false);
      if (!(s == summaries_[i])) {
        summaries_[i] = std::move(s);
        changed = true;
      }
    }
    if (!changed) break;
  }
}

// ---- R5 lock-held-across-switch / R8 lock-requires-unheld ------------------

void Analyzer::CheckLockDiscipline() {
  lock_edges_.clear();
  for (std::size_t i = 0; i < functions_.size(); i++) {
    if (functions_[i].has_body) WalkLocks(static_cast<int>(i), /*report=*/true);
  }
}

// ---- R6 lock-order-cycle ---------------------------------------------------

void Analyzer::CheckLockOrderCycles() {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& e : lock_edges_) adj[e.first.first].push_back(e.first.second);
  for (auto& a : adj) std::sort(a.second.begin(), a.second.end());

  std::set<std::string> reported;
  // Each cycle is found once, rotated so its lexicographically smallest lock
  // comes first: DFS from every start node, visiting only nodes >= start.
  for (const auto& a : adj) {
    const std::string& start = a.first;
    std::vector<std::string> path{start};
    std::set<std::string> on_path{start};
    std::function<void(const std::string&)> dfs = [&](const std::string& cur) {
      if (path.size() > 8) return;
      auto it = adj.find(cur);
      if (it == adj.end()) return;
      for (const std::string& next : it->second) {
        if (next == start && path.size() >= 2) {
          std::string key;
          for (const std::string& n : path) key += n + "|";
          if (!reported.insert(key).second) continue;
          // Message carries every edge's first witness site — for a two-lock
          // cycle that is both acquisition orders.
          std::string msg = "lock-order cycle: " + start;
          for (std::size_t k = 0; k < path.size(); k++) {
            const std::string& from = path[k];
            const std::string& to = k + 1 < path.size() ? path[k + 1] : start;
            const LockEdge& w = lock_edges_.at(std::make_pair(from, to));
            msg += " -> " + to + " (" + files_[static_cast<std::size_t>(w.file)].path + ":" +
                   std::to_string(w.line) + ")";
          }
          msg += "; acquiring in opposite orders can deadlock";
          const LockEdge& first = lock_edges_.at(std::make_pair(start, path.size() > 1 ? path[1] : start));
          diags_.push_back(Diagnostic{files_[static_cast<std::size_t>(first.file)].path,
                                      first.line, "lock-order-cycle", msg});
          continue;
        }
        if (next <= start || on_path.count(next) != 0) continue;
        path.push_back(next);
        on_path.insert(next);
        dfs(next);
        on_path.erase(next);
        path.pop_back();
      }
    };
    dfs(start);
  }
}

// ---- R7 blocking-call-on-worker --------------------------------------------

void Analyzer::CheckBlockingOnWorker() {
  for (std::size_t i = 0; i < functions_.size(); i++) {
    const Function& fn = functions_[i];
    if (!on_worker_[i] || !fn.has_body) continue;
    // A function that declares itself SKYLOFT_BLOCKING is reported at its
    // call sites, not for its own internals.
    if (fn.ann.blocking) continue;
    const auto& toks = files_[static_cast<std::size_t>(fn.file)].tokens;

    bool sanctioned_io = false;
    for (const CallSite& cs : fn.calls) {
      if (cs.name == "WaitForReadable" || cs.name == "WaitForWritable") {
        sanctioned_io = true;
        break;
      }
    }

    for (const CallSite& cs : fn.calls) {
      // `x.read()` / `p->poll()` are member calls, never the raw syscall;
      // the denylists only name free functions. (SKYLOFT_BLOCKING-annotated
      // methods are still caught below via their annotation.)
      const bool member_call =
          cs.pos > fn.body_begin &&
          (toks[static_cast<std::size_t>(cs.pos - 1)].text == "." ||
           toks[static_cast<std::size_t>(cs.pos - 1)].text == "->");
      bool uncond = !member_call && UnconditionalBlocking().count(cs.name) != 0;
      // futex-wait shape: syscall(SYS_futex, ..., FUTEX_WAIT, ...).
      if (!uncond && cs.name == "syscall") {
        for (int p = cs.pos + 2; p < cs.pos + 10 && p < fn.body_end; p++) {
          const std::string& t = toks[static_cast<std::size_t>(p)].text;
          if (t.find("futex") != std::string::npos || t.find("FUTEX") != std::string::npos) {
            uncond = true;
            break;
          }
        }
      }
      if (uncond) {
        Report(static_cast<int>(i), cs.line, "blocking-call-on-worker",
               "blocking call '" + cs.name + "' on a worker/scheduler path (reached via " +
                   WorkerPath(static_cast<int>(i)) +
                   "); it stalls every uthread on the worker — park through the runtime "
                   "primitives instead");
        continue;
      }
      bool callee_blocking = false;
      auto it = by_name_.find(cs.name);
      if (it != by_name_.end()) {
        for (int c : it->second) {
          if (functions_[static_cast<std::size_t>(c)].ann.blocking) callee_blocking = true;
        }
      }
      if (callee_blocking) {
        Report(static_cast<int>(i), cs.line, "blocking-call-on-worker",
               "'" + cs.name + "' is annotated SKYLOFT_BLOCKING and is called on a "
                   "worker/scheduler path (reached via " + WorkerPath(static_cast<int>(i)) + ")");
        continue;
      }
      if (!member_call && FdBlocking().count(cs.name) != 0 && !sanctioned_io) {
        Report(static_cast<int>(i), cs.line, "blocking-call-on-worker",
               "fd call '" + cs.name + "' on a worker path with no WaitForReadable/"
                   "WaitForWritable park loop in the same body (reached via " +
                   WorkerPath(static_cast<int>(i)) +
                   "); on a blocking fd this stalls the worker pthread");
      }
    }
  }
}

bool Analyzer::CallMaySwitch(const CallSite& cs) const {
  for (std::size_t i = 0; i < functions_.size(); i++) {
    if (functions_[i].simple == cs.name && may_switch_[i]) return true;
  }
  return false;
}

std::string Analyzer::SwitchPath(int from) const {
  std::string path = functions_[static_cast<std::size_t>(from)].simple;
  int cur = from;
  for (int hop = 0; hop < 8; hop++) {
    if (functions_[static_cast<std::size_t>(cur)].ann.may_switch) break;
    int next = -1;
    for (int c : callees_[static_cast<std::size_t>(cur)]) {
      if (may_switch_[static_cast<std::size_t>(c)]) {
        next = c;
        break;
      }
    }
    if (next < 0) break;
    path += " -> " + functions_[static_cast<std::size_t>(next)].simple;
    cur = next;
  }
  return path;
}

void Analyzer::Report(int fn, int line, const std::string& rule, const std::string& msg) {
  diags_.push_back(Diagnostic{files_[static_cast<std::size_t>(functions_[static_cast<std::size_t>(fn)].file)].path,
                              line, rule, msg});
}

// ---- R1: tls-across-switch -------------------------------------------------

void Analyzer::CheckTlsAcrossSwitch() {
  for (std::size_t i = 0; i < functions_.size(); i++) {
    const Function& fn = functions_[i];
    if (!fn.has_body) continue;
    const auto& toks = files_[static_cast<std::size_t>(fn.file)].tokens;
    auto text = [&](int p) -> const std::string& { return toks[static_cast<std::size_t>(p)].text; };
    auto line_of = [&](int p) { return toks[static_cast<std::size_t>(p)].line; };
    auto is_returns_tls_call = [&](int p) {
      if (toks[static_cast<std::size_t>(p)].kind != Tok::kIdent || text(p + 1) != "(") return false;
      for (const Function& g : functions_) {
        if (g.simple == text(p) && g.ann.returns_tls) return true;
      }
      return false;
    };
    // A TLS *address* source: &errno, &<thread_local var>, __errno_location()
    // or a SKYLOFT_RETURNS_TLS call — unless immediately dereferenced, which
    // re-derives on every evaluation and is the sanctioned pattern.
    auto is_addr_source = [&](int p) {
      const bool deref = p > fn.body_begin && text(p - 1) == "*";
      if (text(p) == "&" && p + 1 < fn.body_end &&
          (text(p + 1) == "errno" || tls_variables_.count(text(p + 1)) != 0)) {
        return true;
      }
      if (deref) return false;
      if (text(p) == "__errno_location" && text(p + 1) == "(") return true;
      return is_returns_tls_call(p);
    };

    // May-switch call positions within the body.
    std::vector<int> switch_pos;
    std::vector<std::string> switch_name;
    for (const CallSite& cs : fn.calls) {
      if (CallMaySwitch(cs)) {
        switch_pos.push_back(cs.pos);
        switch_name.push_back(cs.name);
      }
    }

    // R1a: a variable bound to a TLS-derived address, used after a
    // may-switch call that follows the binding.
    if (!switch_pos.empty()) {
      for (int p = fn.body_begin; p + 2 < fn.body_end; p++) {
        if (toks[static_cast<std::size_t>(p)].kind != Tok::kIdent || text(p + 1) != "=") continue;
        // RHS scan to the statement end.
        int stmt_end = p + 2;
        bool tls_rhs = false;
        while (stmt_end < fn.body_end && text(stmt_end) != ";") {
          if (is_addr_source(stmt_end)) tls_rhs = true;
          stmt_end++;
        }
        if (!tls_rhs) continue;
        const std::string var = text(p);
        for (std::size_t s = 0; s < switch_pos.size(); s++) {
          if (switch_pos[s] <= stmt_end) continue;
          for (int u = switch_pos[s] + 1; u < fn.body_end; u++) {
            if (toks[static_cast<std::size_t>(u)].kind == Tok::kIdent && text(u) == var) {
              Report(static_cast<int>(i), line_of(u), "tls-across-switch",
                     "'" + var + "' holds a TLS-derived address and is used after '" +
                         switch_name[s] + "()' (line " + std::to_string(line_of(switch_pos[s])) +
                         "), which may context-switch");
              u = fn.body_end;     // one report per binding
              s = switch_pos.size() - 1;
            }
          }
        }
      }
    }

    // R1b: raw errno touched on both sides of a may-switch call. glibc marks
    // __errno_location() __attribute__((const)), so the compiler may CSE the
    // location across the switch — after migration it names the wrong
    // thread's errno.
    if (!switch_pos.empty()) {
      std::vector<int> raw;
      for (int p = fn.body_begin; p < fn.body_end; p++) {
        if (text(p) == "errno" || (text(p) == "__errno_location" && text(p + 1) == "(")) {
          raw.push_back(p);
        }
      }
      for (std::size_t s = 0; s < switch_pos.size() && !raw.empty(); s++) {
        const bool before = raw.front() < switch_pos[s];
        int after = -1;
        for (int r : raw) {
          if (r > switch_pos[s]) {
            after = r;
            break;
          }
        }
        if (before && after >= 0) {
          Report(static_cast<int>(i), line_of(after), "tls-across-switch",
                 "errno is accessed on both sides of '" + switch_name[s] + "()' (line " +
                     std::to_string(line_of(switch_pos[s])) +
                     "), which may context-switch; the const-attributed __errno_location may "
                     "be CSE'd across it — re-derive via a SKYLOFT_RETURNS_TLS helper");
          break;
        }
      }
    }

    // R1c: returning a TLS-derived address demands the SKYLOFT_RETURNS_TLS
    // annotation, so callers are checked instead of trusted.
    if (!fn.ann.returns_tls) {
      for (int p = fn.body_begin; p < fn.body_end; p++) {
        if (text(p) != "return") continue;
        for (int q = p + 1; q < fn.body_end && text(q) != ";"; q++) {
          if (is_addr_source(q)) {
            Report(static_cast<int>(i), line_of(p), "tls-across-switch",
                   "'" + fn.simple +
                       "' returns a TLS-derived address; annotate it with SKYLOFT_RETURNS_TLS");
            p = fn.body_end;
            break;
          }
        }
      }
    }
  }
}

// ---- R2: preempt-balance ---------------------------------------------------

void Analyzer::CheckPreemptBalance() {
  for (std::size_t i = 0; i < functions_.size(); i++) {
    const Function& fn = functions_[i];
    if (!fn.has_body) continue;
    const auto& toks = files_[static_cast<std::size_t>(fn.file)].tokens;
    auto text = [&](int p) -> const std::string& { return toks[static_cast<std::size_t>(p)].text; };

    // Linear scan with a block stack: a block that returns does not leak its
    // balance delta into the fall-through path (an early-return arm that
    // re-enables preemption must not mask the main path's imbalance).
    struct Block {
      int entry_balance;
      bool returned;
    };
    std::vector<Block> blocks;
    int balance = 0;
    bool saw_counter = false;
    for (int p = fn.body_begin; p < fn.body_end; p++) {
      const std::string& s = text(p);
      if (s == "{") {
        blocks.push_back(Block{balance, false});
        continue;
      }
      if (s == "}") {
        if (!blocks.empty()) {
          if (blocks.back().returned) balance = blocks.back().entry_balance;
          blocks.pop_back();
        }
        continue;
      }
      if (s == "return") {
        if (balance != 0) {
          Report(static_cast<int>(i), toks[static_cast<std::size_t>(p)].line, "preempt-balance",
                 "return with preempt-disable balance " + std::string(balance > 0 ? "+" : "") +
                     std::to_string(balance) + " in '" + fn.simple + "'");
        }
        if (!blocks.empty()) blocks.back().returned = true;
        continue;
      }
      if (toks[static_cast<std::size_t>(p)].kind != Tok::kIdent) continue;
      // The runtime's depth helpers: PreemptDepthInc( / PreemptDepthDec(.
      const int helper = s == "PreemptDepthInc" ? 1 : s == "PreemptDepthDec" ? -1 : 0;
      if (helper != 0 && p + 1 < fn.body_end && text(p + 1) == "(") {
        balance += helper;
        saw_counter = true;
        continue;
      }
      // <preempt_disable/preempt_count counter> (. | ->) fetch_add|fetch_sub (
      // The name filter is deliberately narrow: statistics counters such as
      // `preemptions_` or `preempt_deferrals_` are not disable depths.
      if ((s.find("preempt_disable") != std::string::npos ||
           s.find("preempt_count") != std::string::npos) &&
          p + 3 < fn.body_end &&
          (text(p + 1) == "." || text(p + 1) == "->") && text(p + 3) == "(") {
        if (text(p + 2) == "fetch_add") {
          balance++;
          saw_counter = true;
        } else if (text(p + 2) == "fetch_sub") {
          balance--;
          saw_counter = true;
        }
      }
    }
    if (saw_counter && balance != 0) {
      Report(static_cast<int>(i), fn.line, "preempt-balance",
             "'" + fn.simple + "' exits with preempt-disable balance " +
                 std::string(balance > 0 ? "+" : "") + std::to_string(balance));
    }
  }
}

// ---- R3: signal-unsafe-call ------------------------------------------------

void Analyzer::CheckSignalUnsafeCalls() {
  const auto& deny = SignalDenylist();
  for (std::size_t i = 0; i < functions_.size(); i++) {
    if (!signal_safe_[i] || !functions_[i].has_body) continue;
    const Function& fn = functions_[i];
    const auto& toks = files_[static_cast<std::size_t>(fn.file)].tokens;

    // Path from a signal-safe root for the message.
    std::string via = fn.simple;
    for (int p = signal_parent_[i]; p >= 0; p = signal_parent_[static_cast<std::size_t>(p)]) {
      via = functions_[static_cast<std::size_t>(p)].simple + " -> " + via;
    }

    for (const CallSite& cs : fn.calls) {
      if (deny.count(cs.name) != 0) {
        Report(static_cast<int>(i), cs.line, "signal-unsafe-call",
               "'" + cs.name + "' is not async-signal-safe (reached via " + via + ")");
      }
    }
    for (int p = fn.body_begin; p < fn.body_end; p++) {
      const Token& t = toks[static_cast<std::size_t>(p)];
      if (t.kind != Tok::kIdent || (t.text != "new" && t.text != "delete")) continue;
      // Placement new does not allocate.
      if (t.text == "new" && p + 1 < fn.body_end &&
          toks[static_cast<std::size_t>(p + 1)].text == "(") {
        continue;
      }
      Report(static_cast<int>(i), t.line, "signal-unsafe-call",
             "operator " + t.text + " allocates and is not async-signal-safe (reached via " +
                 via + ")");
    }
  }
}

// ---- R4: switch-in-noswitch ------------------------------------------------

void Analyzer::CheckNoSwitchReach() {
  for (std::size_t i = 0; i < functions_.size(); i++) {
    const Function& fn = functions_[i];
    if (!fn.ann.no_switch) continue;
    if (fn.ann.may_switch) {
      Report(static_cast<int>(i), fn.line, "switch-in-noswitch",
             "'" + fn.simple + "' is annotated both SKYLOFT_NO_SWITCH and SKYLOFT_MAY_SWITCH");
      continue;
    }
    if (!fn.has_body) continue;
    for (const CallSite& cs : fn.calls) {
      if (!CallMaySwitch(cs)) continue;
      // Resolve to a may-switch candidate for the path message.
      int target = -1;
      for (std::size_t t = 0; t < functions_.size(); t++) {
        if (functions_[t].simple == cs.name && may_switch_[t]) {
          target = static_cast<int>(t);
          break;
        }
      }
      Report(static_cast<int>(i), cs.line, "switch-in-noswitch",
             "SKYLOFT_NO_SWITCH function '" + fn.simple + "' calls '" + cs.name +
                 "', which may context-switch (" + SwitchPath(target) + ")");
      break;  // one report per function keeps the signal readable
    }
  }
}

// ---- suppressions ----------------------------------------------------------

void Analyzer::ApplySuppressions() {
  // bad-suppression diagnostics first; they cannot themselves be suppressed.
  for (const FileTokens& file : files_) {
    for (const Suppression& sup : file.suppressions) {
      if (sup.rules.empty()) {
        diags_.push_back(Diagnostic{file.path, sup.line, "bad-suppression",
                                    "skylint:allow requires a rule list: "
                                    "// skylint:allow(<rule>) -- <reason>"});
        continue;
      }
      for (const std::string& r : sup.rules) {
        if (KnownRules().count(r) == 0) {
          diags_.push_back(Diagnostic{file.path, sup.line, "bad-suppression",
                                      "unknown rule '" + r + "' in skylint:allow"});
        }
      }
      if (!sup.has_reason) {
        diags_.push_back(Diagnostic{file.path, sup.line, "bad-suppression",
                                    "skylint:allow is missing its justification: append "
                                    "' -- <reason>'"});
      }
    }
  }

  std::vector<Diagnostic> kept;
  for (const Diagnostic& d : diags_) {
    bool suppressed = false;
    if (d.rule != "bad-suppression") {
      for (FileTokens& file : files_) {
        if (file.path != d.file) continue;
        for (Suppression& sup : file.suppressions) {
          if (!sup.has_reason) continue;  // invalid suppressions suppress nothing
          if (sup.line != d.line && sup.line != d.line - 1) continue;
          if (std::find(sup.rules.begin(), sup.rules.end(), d.rule) == sup.rules.end()) continue;
          suppressed = true;
          sup.used = true;
        }
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  diags_ = std::move(kept);
}

std::vector<Diagnostic> Analyzer::Run() {
  ExtractAll();
  MergeAnnotations();
  BuildCallGraph();
  ComputeMaySwitch();
  ComputeSignalClosure();
  ComputeWorkerClosure();
  ComputeLockSummaries();
  CheckTlsAcrossSwitch();
  CheckPreemptBalance();
  CheckSignalUnsafeCalls();
  CheckNoSwitchReach();
  CheckLockDiscipline();
  CheckLockOrderCycles();
  CheckBlockingOnWorker();
  ApplySuppressions();
  std::sort(diags_.begin(), diags_.end());
  diags_.erase(std::unique(diags_.begin(), diags_.end()), diags_.end());
  return diags_;
}

void Analyzer::Dump() const {
  std::printf("== functions (%zu) ==\n", functions_.size());
  for (std::size_t i = 0; i < functions_.size(); i++) {
    const Function& fn = functions_[i];
    std::printf("%s%s%s%s%s%s%s %s  [%s:%d]%s calls=%zu\n",
                may_switch_.empty() ? "" : (may_switch_[i] ? "S" : "-"),
                signal_safe_.empty() ? "" : (signal_safe_[i] ? "H" : "-"),
                on_worker_.empty() ? "" : (on_worker_[i] ? "W" : "-"),
                fn.ann.no_switch ? "N" : "-", fn.ann.returns_tls ? "T" : "-",
                fn.ann.blocking ? "B" : "-",
                fn.has_body ? "D" : "d", fn.qualified.c_str(),
                files_[static_cast<std::size_t>(fn.file)].path.c_str(), fn.line,
                fn.ann.may_switch ? " [MAY_SWITCH]" : "", fn.calls.size());
  }
  std::printf("== tls variables ==\n");
  for (const std::string& v : tls_variables_) std::printf("  %s\n", v.c_str());
  std::printf("== lock summaries (nonempty) ==\n");
  for (std::size_t i = 0; i < functions_.size() && i < summaries_.size(); i++) {
    const LockSummary& s = summaries_[i];
    const auto& req = functions_[i].ann.requires_held;
    if (s.acquires.empty() && s.releases.empty() && req.empty()) continue;
    std::string line = "  " + functions_[i].qualified;
    auto join = [](const std::set<std::string>& set) {
      std::string out;
      for (const std::string& l : set) out += (out.empty() ? "" : ",") + l;
      return out;
    };
    if (!s.acquires.empty()) line += " acquires{" + join(s.acquires) + "}";
    if (!s.releases.empty()) line += " releases{" + join(s.releases) + "}";
    if (!req.empty()) line += " requires{" + join(req) + "}";
    std::printf("%s\n", line.c_str());
  }
  std::printf("== lock-order graph (acquired-while-holding) ==\n");
  for (const auto& e : lock_edges_) {
    std::printf("  %s -> %s  [%s:%d]\n", e.first.first.c_str(), e.first.second.c_str(),
                files_[static_cast<std::size_t>(e.second.file)].path.c_str(), e.second.line);
  }
}

}  // namespace skylint
