#include "quantum/fusion.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "util/expect.hpp"
#include "util/shard.hpp"

namespace qdc::quantum {

// ---------------------------------------------------------------------------
// FusedGate

FusedGate::FusedGate(std::vector<int> qubits) : qubits_(std::move(qubits)) {
  QDC_EXPECT(!qubits_.empty() &&
                 qubits_.size() <= static_cast<std::size_t>(kMaxFusionWindow),
             "FusedGate: window size must be in [1, kMaxFusionWindow] "
             "(size = " +
                 std::to_string(qubits_.size()) + ")");
  std::sort(qubits_.begin(), qubits_.end());
  QDC_EXPECT(qubits_.front() >= 0 && qubits_.back() < kMaxQubits,
             "FusedGate: window qubit out of range (lowest = " +
                 std::to_string(qubits_.front()) + ", highest = " +
                 std::to_string(qubits_.back()) + ")");
  QDC_EXPECT(std::adjacent_find(qubits_.begin(), qubits_.end()) ==
                 qubits_.end(),
             "FusedGate: window qubits must be distinct");
  const std::size_t d = dim();
  offsets_.resize(d);
  for (std::size_t m = 0; m < d; ++m) {
    std::size_t offset = 0;
    for (std::size_t j = 0; j < qubits_.size(); ++j) {
      if ((m >> j) & 1U) offset |= std::size_t{1} << qubits_[j];
    }
    offsets_[m] = offset;
  }
}

int FusedGate::local_index(int qubit) const {
  const auto it = std::lower_bound(qubits_.begin(), qubits_.end(), qubit);
  QDC_EXPECT(it != qubits_.end() && *it == qubit,
             "FusedGate: qubit " + std::to_string(qubit) +
                 " is not in this window");
  return static_cast<int>(it - qubits_.begin());
}

void FusedGate::push_gate(const Gate1& g, int qubit) {
  ops_.push_back(WindowOp{g, local_index(qubit), -1});
}

void FusedGate::push_controlled(const Gate1& g, int control, int target) {
  QDC_EXPECT(control != target,
             "FusedGate: control and target must differ (qubit = " +
                 std::to_string(control) + ")");
  const int pc = local_index(control);
  ops_.push_back(WindowOp{g, local_index(target), pc});
}

// ---------------------------------------------------------------------------
// FusedCircuit

FusedCircuit::FusedCircuit(int qubit_count, int window)
    : qubit_count_(qubit_count), window_(window) {
  QDC_EXPECT(qubit_count >= 1 && qubit_count <= kMaxQubits,
             "FusedCircuit: qubit count must be in [1, kMaxQubits] "
             "(qubit_count = " +
                 std::to_string(qubit_count) + ")");
  QDC_EXPECT(window >= 2 && window <= kMaxFusionWindow,
             "FusedCircuit: window must be in [2, kMaxFusionWindow] "
             "(window = " +
                 std::to_string(window) + ")");
}

void FusedCircuit::expect_recording(const char* fn) const {
  QDC_EXPECT(!sealed_, std::string("FusedCircuit::") + fn +
                           ": circuit is sealed; record before seal()");
}

void FusedCircuit::expect_qubit(int qubit, const char* fn) const {
  QDC_EXPECT(qubit >= 0 && qubit < qubit_count_,
             std::string("FusedCircuit::") + fn +
                 ": qubit out of range (qubit = " + std::to_string(qubit) +
                 ", qubit_count = " + std::to_string(qubit_count_) + ")");
}

int FusedCircuit::open_window(std::vector<int> qubits) {
  const int index = static_cast<int>(windows_.size());
  windows_.push_back(WindowBuild{std::move(qubits), {}});
  Step step;
  step.window = index;
  ops_.push_back(std::move(step));
  return index;
}

void FusedCircuit::gate(const Gate1& g, int qubit) {
  expect_recording("gate");
  expect_qubit(qubit, "gate");
  // Frontier-only packing: a gate may only join the most recent window.
  // Joining any earlier window would execute the gate before gates it was
  // recorded after — mathematically harmless when the qubit sets are
  // disjoint, but the floating-point association changes, which breaks
  // the bit-identity contract. Appending to the frontier (or opening a
  // new window at the end) keeps execution order equal to record order.
  int w = -1;
  const int frontier = static_cast<int>(windows_.size()) - 1;
  if (frontier >= barrier_floor_) {
    std::vector<int>& qubits =
        windows_[static_cast<std::size_t>(frontier)].qubits;
    const bool has =
        std::find(qubits.begin(), qubits.end(), qubit) != qubits.end();
    if (has || qubits.size() < static_cast<std::size_t>(window_)) {
      if (!has) qubits.push_back(qubit);
      w = frontier;
    }
  }
  if (w < 0) w = open_window({qubit});
  windows_[static_cast<std::size_t>(w)].gates.push_back(
      Recorded{g, qubit, -1});
}

void FusedCircuit::controlled(const Gate1& g, int control, int target) {
  expect_recording("controlled");
  expect_qubit(control, "controlled");
  expect_qubit(target, "controlled");
  QDC_EXPECT(control != target,
             "FusedCircuit::controlled: control and target must differ "
             "(qubit = " +
                 std::to_string(control) + ")");
  // Same frontier-only rule as gate(): join the most recent window when
  // the combined qubit set still fits, else open a new one.
  int w = -1;
  const int frontier = static_cast<int>(windows_.size()) - 1;
  if (frontier >= barrier_floor_) {
    std::vector<int>& qubits =
        windows_[static_cast<std::size_t>(frontier)].qubits;
    const bool has_c = std::find(qubits.begin(), qubits.end(), control) !=
                       qubits.end();
    const bool has_t = std::find(qubits.begin(), qubits.end(), target) !=
                       qubits.end();
    const std::size_t grown =
        qubits.size() + (has_c ? 0U : 1U) + (has_t ? 0U : 1U);
    if (grown <= static_cast<std::size_t>(window_)) {
      if (!has_c) qubits.push_back(control);
      if (!has_t) qubits.push_back(target);
      w = frontier;
    }
  }
  if (w < 0) w = open_window({control, target});
  windows_[static_cast<std::size_t>(w)].gates.push_back(
      Recorded{g, target, control});
}

void FusedCircuit::cnot(int control, int target) {
  // Same matrices as StateVector::cnot/cz so fused replay is bit-identical.
  controlled(Gate1{{0, 0}, {1, 0}, {1, 0}, {0, 0}}, control, target);
}

void FusedCircuit::cz(int control, int target) {
  controlled(Gate1{{1, 0}, {0, 0}, {0, 0}, {-1, 0}}, control, target);
}

void FusedCircuit::swap(int a, int b) {
  expect_recording("swap");
  expect_qubit(a, "swap");
  expect_qubit(b, "swap");
  if (a == b) return;  // mirror StateVector::swap: trivially a no-op
  cnot(a, b);
  cnot(b, a);
  cnot(a, b);
}

void FusedCircuit::oracle(std::function<bool(std::size_t)> marked) {
  expect_recording("oracle");
  QDC_EXPECT(static_cast<bool>(marked),
             "FusedCircuit::oracle: marked predicate must be callable");
  Step step;
  step.oracle = std::move(marked);
  ops_.push_back(std::move(step));
  // Oracles act on full basis indices: no window recorded before this
  // point may absorb a later gate, or the gate would run before the
  // oracle it was recorded after.
  barrier_floor_ = static_cast<int>(windows_.size());
}

void FusedCircuit::seal() {
  expect_recording("seal");
  fused_.reserve(windows_.size());
  for (const WindowBuild& build : windows_) {
    FusedGate gate(build.qubits);
    for (const Recorded& rec : build.gates) {
      if (rec.q1 < 0) {
        gate.push_gate(rec.g, rec.q0);
      } else {
        gate.push_controlled(rec.g, rec.q1, rec.q0);
      }
    }
    fused_.push_back(std::move(gate));
  }
  sealed_ = true;
}

int FusedCircuit::recorded_gate_count() const {
  int count = 0;
  for (const WindowBuild& build : windows_) {
    count += static_cast<int>(build.gates.size());
  }
  return count;
}

void FusedCircuit::run(StateVector& state) const {
  QDC_EXPECT(sealed_, "FusedCircuit::run: seal() the circuit first");
  QDC_EXPECT(state.qubit_count() == qubit_count_,
             "FusedCircuit::run: state qubit count mismatch (circuit = " +
                 std::to_string(qubit_count_) + ", state = " +
                 std::to_string(state.qubit_count()) + ")");
  for (const Step& step : ops_) {
    if (step.window < 0) {
      state.oracle_phase(step.oracle);
      continue;
    }
    const FusedGate& gate = fused_[static_cast<std::size_t>(step.window)];
    if (gate.gate_count() == 1) {
      const WindowOp& op = gate.ops().front();
      if (op.local1 < 0) {
        state.apply(op.g, gate.qubits()[static_cast<std::size_t>(op.local0)]);
      } else {
        state.apply_controlled(
            op.g, gate.qubits()[static_cast<std::size_t>(op.local1)],
            gate.qubits()[static_cast<std::size_t>(op.local0)]);
      }
    } else {
      apply_window(state, gate);
    }
  }
}

// ---------------------------------------------------------------------------
// Panel kernel. run() has checked the state's qubit count against the
// circuit's, and every window qubit was range-checked when it was recorded.

void FusedCircuit::apply_window(StateVector& state, const FusedGate& fused) {
  const int w = fused.window();
  const std::size_t block = fused.dim();
  const std::size_t* offsets = fused.offsets().data();
  const std::vector<WindowOp>& ops = fused.ops();
  Amplitude* amps = state.amplitudes_.data();
  // Groups are disjoint 2^w-amplitude gathers; the aligned plan keeps
  // every group inside one shard, so there is no cross-shard state at all
  // and results are bit-identical for every pool.
  // Longest run of low window qubits equal to 0, 1, 2, ...: group
  // amplitudes come in contiguous chunks of 2^low_run, so gather and
  // scatter move chunks instead of single amplitudes.
  std::size_t low_run = 0;
  while (low_run < fused.qubits().size() &&
         fused.qubits()[low_run] == static_cast<int>(low_run)) {
    ++low_run;
  }
  const std::size_t chunk = std::size_t{1} << low_run;
  util::run_sharded(
      state.pool_,
      util::ShardPlan::over_aligned(state.amplitudes_.size(), block),
      [&](int, std::size_t begin, std::size_t end) {
        alignas(64) Amplitude panel[std::size_t{1} << kMaxFusionWindow];
        for (std::size_t group = begin >> w; group < end >> w; ++group) {
          const std::size_t base = fused.group_base(group);
          if (chunk >= 4) {
            for (std::size_t m = 0; m < block; m += chunk) {
              std::memcpy(panel + m, amps + base + offsets[m],
                          chunk * sizeof(Amplitude));
            }
          } else {
            for (std::size_t m = 0; m < block; ++m) {
              panel[m] = amps[base + offsets[m]];
            }
          }
          // Replay the recorded gates inside the panel, on raw interleaved
          // doubles. The expressions are the written-out forms of the
          // classic kernels' complex arithmetic — (u*a).re is exactly
          // u.re*a.re - u.im*a.im and complex add is component-wise, so
          // the results are bit-identical to gate-by-gate application
          // while skipping libstdc++'s NaN-recovery branches; that is
          // what lets the compiler keep the panel loops branch-free and
          // vector-friendly. Pairs within one gate are disjoint, so
          // sweeping them in contiguous runs changes nothing.
          double* pd = reinterpret_cast<double*>(panel);
          for (const WindowOp& op : ops) {
            const double u00r = op.g.u00.real();
            const double u00i = op.g.u00.imag();
            const double u01r = op.g.u01.real();
            const double u01i = op.g.u01.imag();
            const double u10r = op.g.u10.real();
            const double u10i = op.g.u10.imag();
            const double u11r = op.g.u11.real();
            const double u11i = op.g.u11.imag();
            const auto update_pair = [&](std::size_t i0, std::size_t i1) {
              const double a0r = pd[2 * i0];
              const double a0i = pd[2 * i0 + 1];
              const double a1r = pd[2 * i1];
              const double a1i = pd[2 * i1 + 1];
              pd[2 * i0] = (u00r * a0r - u00i * a0i) +
                           (u01r * a1r - u01i * a1i);
              pd[2 * i0 + 1] = (u00r * a0i + u00i * a0r) +
                               (u01r * a1i + u01i * a1r);
              pd[2 * i1] = (u10r * a0r - u10i * a0i) +
                           (u11r * a1r - u11i * a1i);
              pd[2 * i1 + 1] = (u10r * a0i + u10i * a0r) +
                               (u11r * a1i + u11i * a1r);
            };
            if (op.local1 < 0) {
              const std::size_t bit = std::size_t{1} << op.local0;
              for (std::size_t b = 0; b < block; b += bit << 1) {
                for (std::size_t k = 0; k < bit; ++k) {
                  update_pair(b + k, (b + k) | bit);
                }
              }
            } else {
              const std::size_t cbit = std::size_t{1} << op.local1;
              const std::size_t tbit = std::size_t{1} << op.local0;
              const int lo = op.local1 < op.local0 ? op.local1 : op.local0;
              const int hi = op.local1 < op.local0 ? op.local0 : op.local1;
              const std::size_t lobit = std::size_t{1} << lo;
              const std::size_t hibit = std::size_t{1} << hi;
              for (std::size_t h = 0; h < block; h += hibit << 1) {
                for (std::size_t m = 0; m < hibit; m += lobit << 1) {
                  for (std::size_t l = 0; l < lobit; ++l) {
                    const std::size_t i0 = (h | m | l) | cbit;
                    update_pair(i0, i0 | tbit);
                  }
                }
              }
            }
          }
          if (chunk >= 4) {
            for (std::size_t m = 0; m < block; m += chunk) {
              std::memcpy(amps + base + offsets[m], panel + m,
                          chunk * sizeof(Amplitude));
            }
          } else {
            for (std::size_t m = 0; m < block; ++m) {
              amps[base + offsets[m]] = panel[m];
            }
          }
        }
      });
}

}  // namespace qdc::quantum
