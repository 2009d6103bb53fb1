#include "exec/operators.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"
#include "exec/hash_table.h"

namespace accordion {
namespace {

// ---------------------------------------------------------------------------
// TableScan
// ---------------------------------------------------------------------------

class TableScanOperator : public Operator {
 public:
  TableScanOperator(TaskContext* ctx, NextSplitFn next_split,
                    OpenSplitFn open_split, std::vector<int> columns)
      : Operator(ctx),
        next_split_(std::move(next_split)),
        open_split_(std::move(open_split)),
        columns_(std::move(columns)) {}

  void AddInput(const PagePtr&) override {
    ACC_CHECK(false) << "table scan takes no input";
  }

  PagePtr GetOutput() override {
    if (IsFinished()) return nullptr;
    if (end_signalled_ && source_ == nullptr) return EmitEnd();
    while (true) {
      if (source_ == nullptr) {
        if (end_signalled_) return EmitEnd();
        std::optional<SystemSplit> split = next_split_();
        if (!split.has_value()) return EmitEnd();
        source_ = open_split_(*split, columns_);
        continue;
      }
      PagePtr page = source_->Next();
      if (page == nullptr) {
        source_.reset();  // split exhausted; try the next one
        continue;
      }
      task_ctx_->AddScanRows(page->num_rows());
      return page;
    }
  }

  void SignalEnd() override { end_signalled_ = true; }

  double CostPerRowMicros() const override {
    return task_ctx_->config().cost.scan_us;
  }
  std::string Name() const override { return "TableScan"; }

 private:
  NextSplitFn next_split_;
  OpenSplitFn open_split_;
  std::vector<int> columns_;
  std::unique_ptr<PageSource> source_;
  bool end_signalled_ = false;
};

class TableScanFactory : public OperatorFactory {
 public:
  TableScanFactory(NextSplitFn next_split, OpenSplitFn open_split,
                   std::vector<int> columns)
      : next_split_(std::move(next_split)),
        open_split_(std::move(open_split)),
        columns_(std::move(columns)) {}

  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<TableScanOperator>(ctx, next_split_, open_split_,
                                               columns_);
  }
  std::string Name() const override { return "TableScan"; }
  bool IsSource() const override { return true; }

 private:
  NextSplitFn next_split_;
  OpenSplitFn open_split_;
  std::vector<int> columns_;
};

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

class ValuesOperator : public Operator {
 public:
  ValuesOperator(TaskContext* ctx, std::vector<PagePtr> pages)
      : Operator(ctx), pages_(std::move(pages)) {}

  void AddInput(const PagePtr&) override {
    ACC_CHECK(false) << "values takes no input";
  }

  PagePtr GetOutput() override {
    if (IsFinished()) return nullptr;
    if (end_signalled_ || cursor_ >= pages_.size()) return EmitEnd();
    return pages_[cursor_++];
  }

  void SignalEnd() override { end_signalled_ = true; }
  double CostPerRowMicros() const override { return 0; }
  std::string Name() const override { return "Values"; }

 private:
  std::vector<PagePtr> pages_;
  size_t cursor_ = 0;
  bool end_signalled_ = false;
};

class ValuesFactory : public OperatorFactory {
 public:
  explicit ValuesFactory(std::vector<PagePtr> pages)
      : pages_(std::move(pages)) {}

  OperatorPtr Create(TaskContext* ctx, int driver_seq) override {
    // All pages go to driver 0; extra drivers see an empty source.
    return std::make_unique<ValuesOperator>(
        ctx, driver_seq == 0 ? pages_ : std::vector<PagePtr>{});
  }
  std::string Name() const override { return "Values"; }
  bool IsSource() const override { return true; }

 private:
  std::vector<PagePtr> pages_;
};

// ---------------------------------------------------------------------------
// Exchange / LocalExchange source
// ---------------------------------------------------------------------------

class ExchangeOperator : public Operator {
 public:
  ExchangeOperator(TaskContext* ctx, ExchangeClient* client)
      : Operator(ctx), client_(client) {}

  void AddInput(const PagePtr&) override {
    ACC_CHECK(false) << "exchange takes no input";
  }

  PagePtr GetOutput() override {
    if (IsFinished()) return nullptr;
    if (end_signalled_) return EmitEnd();
    PagePtr page = client_->Poll();
    if (page == nullptr) return nullptr;
    if (page->IsEnd()) return EmitEnd();
    return page;
  }

  void SignalEnd() override { end_signalled_ = true; }
  ParkState ParkOn(const Waiter& waiter) override {
    return client_->ParkConsumer(waiter);
  }
  double CostPerRowMicros() const override {
    return CostModel::kExchangeUs;
  }
  std::string Name() const override { return "Exchange"; }

 private:
  ExchangeClient* client_;
  bool end_signalled_ = false;
};

class ExchangeFactory : public OperatorFactory {
 public:
  explicit ExchangeFactory(ExchangeClient* client) : client_(client) {}

  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<ExchangeOperator>(ctx, client_);
  }
  std::string Name() const override { return "Exchange"; }
  bool IsSource() const override { return true; }

 private:
  ExchangeClient* client_;
};

class LocalExchangeSourceOperator : public Operator {
 public:
  LocalExchangeSourceOperator(TaskContext* ctx, LocalExchange* exchange)
      : Operator(ctx), exchange_(exchange) {}

  void AddInput(const PagePtr&) override {
    ACC_CHECK(false) << "local exchange source takes no input";
  }

  PagePtr GetOutput() override {
    if (IsFinished()) return nullptr;
    if (end_signalled_) return EmitEnd();
    PagePtr page = exchange_->Poll();
    if (page == nullptr) return nullptr;
    if (page->IsEnd()) return EmitEnd();
    return page;
  }

  void SignalEnd() override { end_signalled_ = true; }
  ParkState ParkOn(const Waiter& waiter) override {
    return exchange_->ParkSource(waiter);
  }
  double CostPerRowMicros() const override {
    return CostModel::kLocalExchangeUs;
  }
  std::string Name() const override { return "LocalExchangeSource"; }

 private:
  LocalExchange* exchange_;
  bool end_signalled_ = false;
};

class LocalExchangeSourceFactory : public OperatorFactory {
 public:
  explicit LocalExchangeSourceFactory(LocalExchange* exchange)
      : exchange_(exchange) {}

  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<LocalExchangeSourceOperator>(ctx, exchange_);
  }
  std::string Name() const override { return "LocalExchangeSource"; }
  bool IsSource() const override { return true; }

 private:
  LocalExchange* exchange_;
};

// ---------------------------------------------------------------------------
// Filter / Project
// ---------------------------------------------------------------------------

class FilterOperator : public Operator {
 public:
  FilterOperator(TaskContext* ctx, ExprPtr predicate)
      : Operator(ctx), predicate_(std::move(predicate)) {}

  bool NeedsInput() const override {
    return state_ == OperatorState::kRunning && pending_ == nullptr;
  }

  void AddInput(const PagePtr& page) override {
    std::vector<int32_t> selected = FilterRows(*predicate_, *page);
    if (selected.empty()) return;
    if (static_cast<int64_t>(selected.size()) == page->num_rows()) {
      pending_ = page;
    } else {
      pending_ = page->Select(selected);
    }
  }

  PagePtr GetOutput() override {
    if (pending_ != nullptr) {
      PagePtr out = pending_;
      pending_ = nullptr;
      return out;
    }
    if (state_ == OperatorState::kFinishing) return EmitEnd();
    return nullptr;
  }

  double CostPerRowMicros() const override {
    return CostModel::kFilterUs;
  }
  std::string Name() const override { return "Filter"; }

 private:
  ExprPtr predicate_;
  PagePtr pending_;
};

class FilterFactory : public OperatorFactory {
 public:
  explicit FilterFactory(ExprPtr predicate) : predicate_(std::move(predicate)) {}
  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<FilterOperator>(ctx, predicate_);
  }
  std::string Name() const override { return "Filter"; }

 private:
  ExprPtr predicate_;
};

class ProjectOperator : public Operator {
 public:
  ProjectOperator(TaskContext* ctx, std::vector<ExprPtr> exprs)
      : Operator(ctx), exprs_(std::move(exprs)) {}

  bool NeedsInput() const override {
    return state_ == OperatorState::kRunning && pending_ == nullptr;
  }

  void AddInput(const PagePtr& page) override {
    std::vector<ColumnPtr> cols;
    cols.reserve(exprs_.size());
    // EvalShared lets plain column references pass through the page's
    // buffers untouched; computed expressions materialize once.
    for (const auto& e : exprs_) cols.push_back(e->EvalShared(*page));
    pending_ = Page::MakeShared(std::move(cols));
  }

  PagePtr GetOutput() override {
    if (pending_ != nullptr) {
      PagePtr out = pending_;
      pending_ = nullptr;
      return out;
    }
    if (state_ == OperatorState::kFinishing) return EmitEnd();
    return nullptr;
  }

  double CostPerRowMicros() const override {
    return CostModel::kProjectUs;
  }
  std::string Name() const override { return "Project"; }

 private:
  std::vector<ExprPtr> exprs_;
  PagePtr pending_;
};

class ProjectFactory : public OperatorFactory {
 public:
  explicit ProjectFactory(std::vector<ExprPtr> exprs)
      : exprs_(std::move(exprs)) {}
  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<ProjectOperator>(ctx, exprs_);
  }
  std::string Name() const override { return "Project"; }

 private:
  std::vector<ExprPtr> exprs_;
};

// ---------------------------------------------------------------------------
// LookupJoin (probe side of the hash join)
// ---------------------------------------------------------------------------

class LookupJoinOperator : public Operator {
 public:
  LookupJoinOperator(TaskContext* ctx, JoinBridge* bridge)
      : Operator(ctx), bridge_(bridge) {
    bridge_->AddProbeDriver();
  }

  bool NeedsInput() const override {
    // Paper §4.1: probing waits for the build side to complete.
    return state_ == OperatorState::kRunning && bridge_->built() &&
           pending_.empty();
  }

  ParkState ParkOn(const Waiter& waiter) override {
    if (state_ != OperatorState::kRunning || bridge_->built()) {
      return ParkState::kNotBlocked;
    }
    return bridge_->ParkUntilBuilt(waiter);
  }

  void AddInput(const PagePtr& page) override {
    Status probed = bridge_->Probe(page, &scratch_, &pending_);
    if (!probed.ok()) task_ctx_->ReportFailure(probed);
  }

  PagePtr GetOutput() override {
    if (!pending_.empty()) {
      PagePtr out = pending_.front();
      pending_.pop_front();
      return out;
    }
    if (state_ != OperatorState::kFinishing) return nullptr;
    // The last probe driver to retire becomes the drainer: it streams the
    // unmatched build rows, or the whole grace join when the bridge
    // spilled.
    if (!probe_retired_) {
      probe_retired_ = true;
      draining_ = bridge_->ProbeDriverFinished();
    }
    if (draining_) {
      Result<PagePtr> next = bridge_->NextSpilledPage();
      if (!next.ok()) {
        task_ctx_->ReportFailure(next.status());
        draining_ = false;
        return EmitEnd();
      }
      PagePtr page = std::move(next).value();
      if (page != nullptr) return page;
      draining_ = false;
    }
    return EmitEnd();
  }

  double CostPerRowMicros() const override {
    return task_ctx_->config().cost.probe_us;
  }
  std::string Name() const override { return "LookupJoin"; }

 private:
  JoinBridge* bridge_;
  JoinBridge::ProbeScratch scratch_;
  std::deque<PagePtr> pending_;
  bool probe_retired_ = false;
  bool draining_ = false;
};

class LookupJoinFactory : public OperatorFactory {
 public:
  explicit LookupJoinFactory(JoinBridge* bridge) : bridge_(bridge) {}

  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<LookupJoinOperator>(ctx, bridge_);
  }
  std::string Name() const override { return "LookupJoin"; }

 private:
  JoinBridge* bridge_;
};

// ---------------------------------------------------------------------------
// Aggregation (partial + final share the accumulator machinery)
// ---------------------------------------------------------------------------

/// Hot accumulator word pair: count/sum/avg state. 16 bytes, so the
/// randomly-indexed states array stays dense — min/max carry their Value
/// payload in a separate cold array that only those aggregates touch.
struct AccNum {
  int64_t i = 0;
  double d = 0;
};

/// Min/max accumulator (cold path): current extremum + seen flag.
struct AccVal {
  Value v;
  bool has = false;
};

/// Base for both aggregation phases; subclasses define how a batch updates
/// states and how group results are emitted.
///
/// Groups live in a flat open-addressing HashTable that assigns dense,
/// first-seen group ids and stores the key tuples columnar; accumulators
/// live in one contiguous vector indexed `group_id * num_aggs + agg`.
/// Input pages are consumed batch-at-a-time: one HashRows pass, one id
/// resolution pass, then column-wise accumulator updates — no per-row key
/// string or per-group heap allocations.
class AggOperatorBase : public Operator {
 public:
  AggOperatorBase(TaskContext* ctx, std::vector<int> group_by,
                  std::vector<Aggregate> aggs,
                  std::vector<DataType> input_types)
      : Operator(ctx),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        input_types_(std::move(input_types)),
        table_(HashTable::SelectKeyTypes(input_types_, group_by_)) {
    val_index_.reserve(aggs_.size());
    for (const Aggregate& agg : aggs_) {
      bool is_minmax = agg.func == AggFunc::kMin || agg.func == AggFunc::kMax;
      val_index_.push_back(is_minmax ? num_val_aggs_++ : -1);
    }
  }

  bool NeedsInput() const override {
    return state_ == OperatorState::kRunning && pending_.empty();
  }

  void AddInput(const PagePtr& page) override {
    table_.LookupOrInsert(*page, group_by_, &group_ids_);
    states_.resize(static_cast<size_t>(table_.size()) * aggs_.size());
    if (num_val_aggs_ > 0) {
      val_states_.resize(static_cast<size_t>(table_.size()) * num_val_aggs_);
    }
    UpdateBatch(*page, group_ids_.data());
    MaybeFlush();
  }

  PagePtr GetOutput() override {
    if (!pending_.empty()) {
      PagePtr out = pending_.front();
      pending_.pop_front();
      return out;
    }
    if (state_ == OperatorState::kFinishing) {
      FlushAll();
      if (!pending_.empty()) {
        PagePtr out = pending_.front();
        pending_.pop_front();
        return out;
      }
      return EmitEnd();
    }
    return nullptr;
  }

 protected:
  /// Updates accumulators for a batch: `ids[i]` is the dense group id of
  /// `page`'s row i. Numeric states live in states_ (`[id * num_aggs + a]`),
  /// min/max in val_states_ (`[id * num_val_aggs_ + val_index_[a]]`).
  virtual void UpdateBatch(const Page& page, const int64_t* ids) = 0;
  virtual std::vector<DataType> OutputTypes() const = 0;
  /// Appends the per-agg result columns for groups [begin, end) to
  /// `cols[group_by_.size()...]` (keys are already appended).
  virtual void EmitStates(int64_t begin, int64_t end,
                          std::vector<Column>* cols) = 0;
  /// Partial aggregation flushes early (destroy-and-rebuild, §4.1);
  /// final aggregation never does.
  virtual void MaybeFlush() {}
  /// Emit a default row when there are no groups and no GROUP BY keys?
  virtual bool EmitEmptyGroup() const { return false; }

  /// Hide the latency of the randomly-indexed states access behind the
  /// row loop, like the hash table does for its slots.
  static constexpr int64_t kStatePrefetch = 16;

  /// Min/max accumulation shared by both phases; typed loops for the
  /// numeric cases, string compare without Value round-trips.
  void UpdateMinMax(const Column& col, int64_t n, const int64_t* ids, int vi,
                    bool is_max) {
    AccVal* vals = val_states_.data();
    const int64_t stride = num_val_aggs_;
    // NULL inputs update nothing; an all-NULL group keeps has == false and
    // emits as NULL (also how partial all-NULL states pass through final).
    const uint8_t* valid =
        col.may_have_nulls() ? col.validity().data() : nullptr;
    switch (col.type()) {
      case DataType::kString:
        for (int64_t i = 0; i < n; ++i) {
          if (valid != nullptr && valid[i] == 0) continue;
          AccVal& st = vals[ids[i] * stride + vi];
          const std::string& s = col.StrAt(i);
          if (!st.has || (is_max ? s > st.v.str : s < st.v.str)) {
            st.v.type = DataType::kString;
            st.v.str = s;
            st.has = true;
          }
        }
        break;
      case DataType::kDouble: {
        const double* v = col.doubles().data();
        for (int64_t i = 0; i < n; ++i) {
          if (valid != nullptr && valid[i] == 0) continue;
          AccVal& st = vals[ids[i] * stride + vi];
          if (!st.has || (is_max ? v[i] > st.v.f64 : v[i] < st.v.f64)) {
            st.v.type = DataType::kDouble;
            st.v.f64 = v[i];
            st.has = true;
          }
        }
        break;
      }
      default: {
        const int64_t* v = col.ints().data();
        const DataType t = col.type();
        for (int64_t i = 0; i < n; ++i) {
          if (valid != nullptr && valid[i] == 0) continue;
          AccVal& st = vals[ids[i] * stride + vi];
          if (!st.has || (is_max ? v[i] > st.v.i64 : v[i] < st.v.i64)) {
            st.v.type = t;
            st.v.i64 = v[i];
            st.has = true;
          }
        }
        break;
      }
    }
  }

  void FlushAll() {
    if (flushed_all_) return;
    flushed_all_ = true;
    if (table_.empty() && group_by_.empty() && EmitEmptyGroup()) {
      // Zero input rows, global aggregation: emit the default row.
      states_.assign(aggs_.size(), AccNum{});
      val_states_.assign(num_val_aggs_, AccVal{});
      std::vector<DataType> types = OutputTypes();
      std::vector<Column> cols;
      cols.reserve(types.size());
      for (DataType t : types) cols.emplace_back(t);
      EmitStates(0, 1, &cols);
      pending_.push_back(Page::Make(std::move(cols)));
      states_.clear();
      val_states_.clear();
      return;
    }
    EmitGroups();
  }

  /// Emits every group and empties the table, keeping its slot capacity
  /// for the next partial-agg flush cycle.
  void EmitGroups() {
    const int64_t total = table_.size();
    std::vector<DataType> types = OutputTypes();
    const int64_t max_rows = task_ctx_->config().batch_rows * 4;
    for (int64_t begin = 0; begin < total; begin += max_rows) {
      int64_t end = std::min(total, begin + max_rows);
      std::vector<Column> cols;
      cols.reserve(types.size());
      for (DataType t : types) cols.emplace_back(t);
      table_.AppendKeys(begin, end, &cols);
      EmitStates(begin, end, &cols);
      pending_.push_back(Page::Make(std::move(cols)));
    }
    table_.Clear();
    states_.clear();
    val_states_.clear();
  }

  std::vector<int> group_by_;
  std::vector<Aggregate> aggs_;
  std::vector<DataType> input_types_;
  HashTable table_;
  std::vector<AccNum> states_;      // group-major: [group_id * num_aggs + a]
  std::vector<AccVal> val_states_;  // [group_id * num_val_aggs_ + val_index]
  std::vector<int> val_index_;      // agg index -> min/max slot, or -1
  int num_val_aggs_ = 0;
  std::vector<int64_t> group_ids_;  // per-input-page scratch
  std::deque<PagePtr> pending_;
  bool flushed_all_ = false;
};

class PartialAggOperator : public AggOperatorBase {
 public:
  using AggOperatorBase::AggOperatorBase;

  double CostPerRowMicros() const override {
    return CostModel::kPartialAggUs;
  }
  std::string Name() const override { return "PartialAggregation"; }

 protected:
  void UpdateBatch(const Page& page, const int64_t* ids) override {
    const int64_t n = page.num_rows();
    AccNum* states = states_.data();
    const size_t num_aggs = aggs_.size();
    for (size_t a = 0; a < num_aggs; ++a) {
      const Aggregate& agg = aggs_[a];
      // Null-skipping (SQL aggregate semantics): a NULL input row updates
      // nothing. The all-valid hot loops stay branch-free; `valid` is only
      // consulted when the input column actually carries a validity buffer.
      const Column* in =
          agg.input_channel >= 0 ? &page.column(agg.input_channel) : nullptr;
      const uint8_t* valid = (in != nullptr && in->may_have_nulls())
                                 ? in->validity().data()
                                 : nullptr;
      switch (agg.func) {
        case AggFunc::kCount:
          // COUNT(*) counts rows; COUNT(col) counts non-NULL values.
          if (valid != nullptr) {
            for (int64_t i = 0; i < n; ++i) {
              states[ids[i] * num_aggs + a].i += valid[i];
            }
          } else {
            for (int64_t i = 0; i < n; ++i) {
              if (i + kStatePrefetch < n) {
                __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
              }
              states[ids[i] * num_aggs + a].i += 1;
            }
          }
          break;
        case AggFunc::kSum: {
          const Column& col = *in;
          // The unused AccNum word counts non-NULL inputs so an all-NULL
          // group can surface as a NULL sum.
          if (agg.ResultType() == DataType::kInt64) {
            const int64_t* v = col.ints().data();
            for (int64_t i = 0; i < n; ++i) {
              if (i + kStatePrefetch < n) {
                __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
              }
              if (valid != nullptr && valid[i] == 0) continue;
              AccNum& st = states[ids[i] * num_aggs + a];
              st.i += v[i];
              st.d += 1.0;
            }
          } else if (col.type() == DataType::kDouble) {
            const double* v = col.doubles().data();
            for (int64_t i = 0; i < n; ++i) {
              if (i + kStatePrefetch < n) {
                __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
              }
              if (valid != nullptr && valid[i] == 0) continue;
              AccNum& st = states[ids[i] * num_aggs + a];
              st.d += v[i];
              st.i += 1;
            }
          } else {
            const int64_t* v = col.ints().data();
            for (int64_t i = 0; i < n; ++i) {
              if (i + kStatePrefetch < n) {
                __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
              }
              if (valid != nullptr && valid[i] == 0) continue;
              AccNum& st = states[ids[i] * num_aggs + a];
              st.d += static_cast<double>(v[i]);
              st.i += 1;
            }
          }
          break;
        }
        case AggFunc::kMin:
        case AggFunc::kMax:
          UpdateMinMax(*in, n, ids, val_index_[a], agg.func == AggFunc::kMax);
          break;
        case AggFunc::kAvg: {
          const Column& col = *in;
          if (col.type() == DataType::kDouble) {
            const double* v = col.doubles().data();
            for (int64_t i = 0; i < n; ++i) {
              if (i + kStatePrefetch < n) {
                __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
              }
              if (valid != nullptr && valid[i] == 0) continue;
              AccNum& st = states[ids[i] * num_aggs + a];
              st.d += v[i];
              st.i += 1;
            }
          } else {
            const int64_t* v = col.ints().data();
            for (int64_t i = 0; i < n; ++i) {
              if (i + kStatePrefetch < n) {
                __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
              }
              if (valid != nullptr && valid[i] == 0) continue;
              AccNum& st = states[ids[i] * num_aggs + a];
              st.d += static_cast<double>(v[i]);
              st.i += 1;
            }
          }
          break;
        }
      }
    }
  }

  std::vector<DataType> OutputTypes() const override {
    std::vector<DataType> types;
    for (int ch : group_by_) types.push_back(input_types_[ch]);
    for (const auto& agg : aggs_) {
      switch (agg.func) {
        case AggFunc::kCount:
          types.push_back(DataType::kInt64);
          break;
        case AggFunc::kSum:
          types.push_back(agg.ResultType());
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          types.push_back(agg.input_type);
          break;
        case AggFunc::kAvg:
          types.push_back(DataType::kDouble);
          types.push_back(DataType::kInt64);
          break;
      }
    }
    return types;
  }

  void EmitStates(int64_t begin, int64_t end,
                  std::vector<Column>* cols) override {
    const AccNum* states = states_.data();
    const AccVal* vals = val_states_.data();
    const size_t num_aggs = aggs_.size();
    const int64_t count = end - begin;
    size_t c = group_by_.size();
    for (size_t a = 0; a < num_aggs; ++a) {
      const Aggregate& agg = aggs_[a];
      switch (agg.func) {
        case AggFunc::kCount: {
          Column& col = (*cols)[c++];
          col.Reserve(col.size() + count);
          for (int64_t g = begin; g < end; ++g) {
            col.AppendInt(states[g * num_aggs + a].i);
          }
          break;
        }
        case AggFunc::kSum: {
          // A group whose every input was NULL has a NULL sum; the spare
          // AccNum word counted the non-NULL inputs.
          Column& col = (*cols)[c++];
          col.Reserve(col.size() + count);
          if (agg.ResultType() == DataType::kInt64) {
            for (int64_t g = begin; g < end; ++g) {
              const AccNum& st = states[g * num_aggs + a];
              if (st.d == 0) {
                col.AppendNull();
              } else {
                col.AppendInt(st.i);
              }
            }
          } else {
            for (int64_t g = begin; g < end; ++g) {
              const AccNum& st = states[g * num_aggs + a];
              if (st.i == 0) {
                col.AppendNull();
              } else {
                col.AppendDouble(st.d);
              }
            }
          }
          break;
        }
        case AggFunc::kMin:
        case AggFunc::kMax: {
          Column& col = (*cols)[c++];
          col.Reserve(col.size() + count);
          for (int64_t g = begin; g < end; ++g) {
            const AccVal& st = vals[g * num_val_aggs_ + val_index_[a]];
            if (st.has) {
              col.AppendValue(st.v);
            } else {
              col.AppendNull();  // MIN/MAX over no non-NULL values
            }
          }
          break;
        }
        case AggFunc::kAvg: {
          Column& sum = (*cols)[c++];
          Column& cnt = (*cols)[c++];
          sum.Reserve(sum.size() + count);
          cnt.Reserve(cnt.size() + count);
          for (int64_t g = begin; g < end; ++g) {
            const AccNum& st = states[g * num_aggs + a];
            sum.AppendDouble(st.d);
            cnt.AppendInt(st.i);
          }
          break;
        }
      }
    }
  }

  void MaybeFlush() override {
    if (table_.size() >= task_ctx_->config().partial_agg_flush_groups) {
      EmitGroups();  // partial state is disposable
    }
  }

};

class FinalAggOperator : public AggOperatorBase {
 public:
  using AggOperatorBase::AggOperatorBase;

  double CostPerRowMicros() const override {
    return CostModel::kFinalAggUs;
  }
  std::string Name() const override { return "FinalAggregation"; }

 protected:
  // Input layout: group keys at [0, k), then per-agg state columns.
  void UpdateBatch(const Page& page, const int64_t* ids) override {
    const int64_t n = page.num_rows();
    AccNum* states = states_.data();
    const size_t num_aggs = aggs_.size();
    int ch = static_cast<int>(group_by_.size());
    for (size_t a = 0; a < num_aggs; ++a) {
      const Aggregate& agg = aggs_[a];
      switch (agg.func) {
        case AggFunc::kCount: {
          const int64_t* v = page.column(ch++).ints().data();
          for (int64_t i = 0; i < n; ++i) {
            if (i + kStatePrefetch < n) {
              __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
            }
            states[ids[i] * num_aggs + a].i += v[i];
          }
          break;
        }
        case AggFunc::kSum: {
          // Partial sums are NULL for all-NULL groups — skip them and keep
          // the non-NULL contribution count in the spare AccNum word so an
          // everywhere-NULL group finalizes as NULL.
          const Column& col = page.column(ch++);
          const uint8_t* valid =
              col.may_have_nulls() ? col.validity().data() : nullptr;
          if (agg.ResultType() == DataType::kInt64) {
            const int64_t* v = col.ints().data();
            for (int64_t i = 0; i < n; ++i) {
              if (i + kStatePrefetch < n) {
                __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
              }
              if (valid != nullptr && valid[i] == 0) continue;
              AccNum& st = states[ids[i] * num_aggs + a];
              st.i += v[i];
              st.d += 1.0;
            }
          } else if (col.type() == DataType::kDouble) {
            const double* v = col.doubles().data();
            for (int64_t i = 0; i < n; ++i) {
              if (i + kStatePrefetch < n) {
                __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
              }
              if (valid != nullptr && valid[i] == 0) continue;
              AccNum& st = states[ids[i] * num_aggs + a];
              st.d += v[i];
              st.i += 1;
            }
          } else {
            const int64_t* v = col.ints().data();
            for (int64_t i = 0; i < n; ++i) {
              if (i + kStatePrefetch < n) {
                __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
              }
              if (valid != nullptr && valid[i] == 0) continue;
              AccNum& st = states[ids[i] * num_aggs + a];
              st.d += static_cast<double>(v[i]);
              st.i += 1;
            }
          }
          break;
        }
        case AggFunc::kMin:
        case AggFunc::kMax:
          UpdateMinMax(page.column(ch++), n, ids, val_index_[a],
                       agg.func == AggFunc::kMax);
          break;
        case AggFunc::kAvg: {
          const double* sum = page.column(ch).doubles().data();
          const int64_t* cnt = page.column(ch + 1).ints().data();
          for (int64_t i = 0; i < n; ++i) {
            if (i + kStatePrefetch < n) {
              __builtin_prefetch(&states[ids[i + kStatePrefetch] * num_aggs]);
            }
            AccNum& st = states[ids[i] * num_aggs + a];
            st.d += sum[i];
            st.i += cnt[i];
          }
          ch += 2;
          break;
        }
      }
    }
  }

  std::vector<DataType> OutputTypes() const override {
    // Keys keep their (partial-layout) types; aggregates finalize.
    std::vector<DataType> types;
    for (size_t k = 0; k < group_by_.size(); ++k) {
      types.push_back(input_types_[k]);
    }
    for (const auto& agg : aggs_) types.push_back(agg.ResultType());
    return types;
  }

  void EmitStates(int64_t begin, int64_t end,
                  std::vector<Column>* cols) override {
    const AccNum* states = states_.data();
    const AccVal* vals = val_states_.data();
    const size_t num_aggs = aggs_.size();
    const int64_t count = end - begin;
    size_t c = group_by_.size();
    for (size_t a = 0; a < num_aggs; ++a) {
      const Aggregate& agg = aggs_[a];
      Column& col = (*cols)[c++];
      col.Reserve(col.size() + count);
      switch (agg.func) {
        case AggFunc::kCount:
          for (int64_t g = begin; g < end; ++g) {
            col.AppendInt(states[g * num_aggs + a].i);
          }
          break;
        case AggFunc::kSum:
          // SQL: SUM over zero non-NULL values (empty group, or all inputs
          // NULL) is NULL, not 0.
          if (agg.ResultType() == DataType::kInt64) {
            for (int64_t g = begin; g < end; ++g) {
              const AccNum& st = states[g * num_aggs + a];
              if (st.d == 0) {
                col.AppendNull();
              } else {
                col.AppendInt(st.i);
              }
            }
          } else {
            for (int64_t g = begin; g < end; ++g) {
              const AccNum& st = states[g * num_aggs + a];
              if (st.i == 0) {
                col.AppendNull();
              } else {
                col.AppendDouble(st.d);
              }
            }
          }
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          for (int64_t g = begin; g < end; ++g) {
            const AccVal& st = vals[g * num_val_aggs_ + val_index_[a]];
            if (st.has) {
              col.AppendValue(st.v);
            } else {
              col.AppendNull();
            }
          }
          break;
        case AggFunc::kAvg:
          for (int64_t g = begin; g < end; ++g) {
            const AccNum& st = states[g * num_aggs + a];
            if (st.i == 0) {
              col.AppendNull();  // AVG over no non-NULL values
            } else {
              col.AppendDouble(st.d / static_cast<double>(st.i));
            }
          }
          break;
      }
    }
  }

  bool EmitEmptyGroup() const override { return true; }
};

class AggFactory : public OperatorFactory {
 public:
  AggFactory(bool partial, std::vector<int> group_by,
             std::vector<Aggregate> aggs, std::vector<DataType> input_types)
      : partial_(partial),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        input_types_(std::move(input_types)) {}

  OperatorPtr Create(TaskContext* ctx, int) override {
    if (partial_) {
      return std::make_unique<PartialAggOperator>(ctx, group_by_, aggs_,
                                                  input_types_);
    }
    // The final phase consumes the partial layout, where the group keys
    // occupy channels [0, k) regardless of their original positions.
    std::vector<int> positional_keys(group_by_.size());
    for (size_t k = 0; k < group_by_.size(); ++k) {
      positional_keys[k] = static_cast<int>(k);
    }
    return std::make_unique<FinalAggOperator>(ctx, std::move(positional_keys),
                                              aggs_, input_types_);
  }
  std::string Name() const override {
    return partial_ ? "PartialAggregation" : "FinalAggregation";
  }

 private:
  bool partial_;
  std::vector<int> group_by_;
  std::vector<Aggregate> aggs_;
  std::vector<DataType> input_types_;
};

// ---------------------------------------------------------------------------
// TopN / Limit
// ---------------------------------------------------------------------------

class TopNOperator : public Operator {
 public:
  TopNOperator(TaskContext* ctx, std::vector<SortKey> keys, int64_t limit,
               std::vector<DataType> input_types)
      : Operator(ctx),
        keys_(std::move(keys)),
        limit_(limit),
        input_types_(std::move(input_types)) {}

  void AddInput(const PagePtr& page) override {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      std::vector<Value> row;
      row.reserve(page->num_columns());
      for (int c = 0; c < page->num_columns(); ++c) {
        row.push_back(page->column(c).ValueAt(r));
      }
      rows_.push_back(std::move(row));
    }
    if (static_cast<int64_t>(rows_.size()) > 4 * limit_) Trim();
  }

  PagePtr GetOutput() override {
    if (state_ == OperatorState::kFinishing) {
      if (!emitted_) {
        emitted_ = true;
        Trim();
        if (!rows_.empty()) {
          std::vector<Column> cols;
          for (DataType t : input_types_) cols.emplace_back(t);
          for (const auto& row : rows_) {
            for (size_t c = 0; c < row.size(); ++c) cols[c].AppendValue(row[c]);
          }
          pending_ = Page::Make(std::move(cols));
        }
      }
      if (pending_ != nullptr) {
        PagePtr out = pending_;
        pending_ = nullptr;
        return out;
      }
      return EmitEnd();
    }
    return nullptr;
  }

  double CostPerRowMicros() const override {
    return CostModel::kTopNUs;
  }
  std::string Name() const override { return "TopN"; }

 private:
  void Trim() {
    auto less = [this](const std::vector<Value>& a,
                       const std::vector<Value>& b) {
      for (const auto& key : keys_) {
        int c = CompareValues(a[key.channel], b[key.channel]);
        if (c != 0) return key.ascending ? c < 0 : c > 0;
      }
      return false;
    };
    std::stable_sort(rows_.begin(), rows_.end(), less);
    if (static_cast<int64_t>(rows_.size()) > limit_) rows_.resize(limit_);
  }

  std::vector<SortKey> keys_;
  int64_t limit_;
  std::vector<DataType> input_types_;
  std::vector<std::vector<Value>> rows_;
  PagePtr pending_;
  bool emitted_ = false;
};

class TopNFactory : public OperatorFactory {
 public:
  TopNFactory(std::vector<SortKey> keys, int64_t limit,
              std::vector<DataType> input_types)
      : keys_(std::move(keys)),
        limit_(limit),
        input_types_(std::move(input_types)) {}

  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<TopNOperator>(ctx, keys_, limit_, input_types_);
  }
  std::string Name() const override { return "TopN"; }

 private:
  std::vector<SortKey> keys_;
  int64_t limit_;
  std::vector<DataType> input_types_;
};

class LimitOperator : public Operator {
 public:
  LimitOperator(TaskContext* ctx, int64_t limit)
      : Operator(ctx), remaining_(limit) {}

  bool NeedsInput() const override {
    return state_ == OperatorState::kRunning && pending_ == nullptr;
  }

  void AddInput(const PagePtr& page) override {
    if (remaining_ <= 0) return;
    if (page->num_rows() <= remaining_) {
      pending_ = page;
      remaining_ -= page->num_rows();
    } else {
      std::vector<int32_t> head(static_cast<size_t>(remaining_));
      for (int64_t i = 0; i < remaining_; ++i) head[i] = static_cast<int32_t>(i);
      pending_ = page->Select(head);
      remaining_ = 0;
    }
  }

  PagePtr GetOutput() override {
    if (pending_ != nullptr) {
      PagePtr out = pending_;
      pending_ = nullptr;
      return out;
    }
    if (state_ == OperatorState::kFinishing || remaining_ <= 0) {
      return EmitEnd();
    }
    return nullptr;
  }

  double CostPerRowMicros() const override { return 1; }
  std::string Name() const override { return "Limit"; }

 private:
  int64_t remaining_;
  PagePtr pending_;
};

class LimitFactory : public OperatorFactory {
 public:
  explicit LimitFactory(int64_t limit) : limit_(limit) {}
  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<LimitOperator>(ctx, limit_);
  }
  std::string Name() const override { return "Limit"; }

 private:
  int64_t limit_;
};

// ---------------------------------------------------------------------------
// Sinks: LocalExchangeSink / HashBuild / TaskOutput
// ---------------------------------------------------------------------------

class LocalExchangeSinkOperator : public Operator {
 public:
  LocalExchangeSinkOperator(TaskContext* ctx, LocalExchange* exchange)
      : Operator(ctx), exchange_(exchange) {
    exchange_->AddSinkDriver();
  }

  bool NeedsInput() const override {
    return state_ == OperatorState::kRunning && exchange_->AcceptingInput();
  }

  ParkState ParkOn(const Waiter& waiter) override {
    if (state_ != OperatorState::kRunning) return ParkState::kNotBlocked;
    return exchange_->ParkSink(waiter);
  }

  void AddInput(const PagePtr& page) override { exchange_->Enqueue(page); }

  PagePtr GetOutput() override {
    if (state_ == OperatorState::kFinishing) {
      exchange_->SinkDriverFinished();
      return EmitEnd();
    }
    return nullptr;
  }

  double CostPerRowMicros() const override {
    return CostModel::kLocalExchangeUs;
  }
  std::string Name() const override { return "LocalExchangeSink"; }

 private:
  LocalExchange* exchange_;
};

class LocalExchangeSinkFactory : public OperatorFactory {
 public:
  explicit LocalExchangeSinkFactory(LocalExchange* exchange)
      : exchange_(exchange) {}
  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<LocalExchangeSinkOperator>(ctx, exchange_);
  }
  std::string Name() const override { return "LocalExchangeSink"; }

 private:
  LocalExchange* exchange_;
};

class HashBuildOperator : public Operator {
 public:
  HashBuildOperator(TaskContext* ctx, JoinBridge* bridge)
      : Operator(ctx), bridge_(bridge) {
    bridge_->AddBuildDriver();
  }

  void AddInput(const PagePtr& page) override {
    Status s = bridge_->AddBuildPage(page);
    if (!s.ok()) task_ctx_->ReportFailure(s);
  }

  PagePtr GetOutput() override {
    if (state_ == OperatorState::kFinishing) {
      bool finalized = bridge_->BuildDriverFinished();
      if (finalized) {
        task_ctx_->SetHashBuildMicros(bridge_->build_index_micros());
      }
      return EmitEnd();
    }
    return nullptr;
  }

  double CostPerRowMicros() const override {
    return task_ctx_->config().cost.hash_build_us;
  }
  std::string Name() const override { return "HashBuilder"; }

 private:
  JoinBridge* bridge_;
};

class HashBuildFactory : public OperatorFactory {
 public:
  explicit HashBuildFactory(JoinBridge* bridge) : bridge_(bridge) {}
  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<HashBuildOperator>(ctx, bridge_);
  }
  std::string Name() const override { return "HashBuilder"; }

 private:
  JoinBridge* bridge_;
};

class TaskOutputOperator : public Operator {
 public:
  TaskOutputOperator(TaskContext* ctx, OutputBuffer* buffer)
      : Operator(ctx), buffer_(buffer) {
    buffer_->AddProducerDriver();
  }

  bool NeedsInput() const override {
    return state_ == OperatorState::kRunning && buffer_->AcceptingInput();
  }

  ParkState ParkOn(const Waiter& waiter) override {
    if (state_ != OperatorState::kRunning) return ParkState::kNotBlocked;
    return buffer_->ParkProducer(waiter);
  }

  void AddInput(const PagePtr& page) override {
    task_ctx_->AddOutputRows(page->num_rows());
    task_ctx_->AddOutputBytes(page->ByteSize());
    buffer_->Enqueue(page);
  }

  PagePtr GetOutput() override {
    if (state_ == OperatorState::kFinishing) {
      buffer_->ProducerDriverFinished();
      return EmitEnd();
    }
    return nullptr;
  }

  double CostPerRowMicros() const override {
    return CostModel::kTaskOutputUs;
  }
  std::string Name() const override { return "TaskOutput"; }

 private:
  OutputBuffer* buffer_;
};

class TaskOutputFactory : public OperatorFactory {
 public:
  explicit TaskOutputFactory(OutputBuffer* buffer) : buffer_(buffer) {}
  OperatorPtr Create(TaskContext* ctx, int) override {
    return std::make_unique<TaskOutputOperator>(ctx, buffer_);
  }
  std::string Name() const override { return "TaskOutput"; }

 private:
  OutputBuffer* buffer_;
};

}  // namespace

OperatorFactoryPtr MakeTableScanFactory(NextSplitFn next_split,
                                        OpenSplitFn open_split,
                                        std::vector<int> columns) {
  return std::make_shared<TableScanFactory>(
      std::move(next_split), std::move(open_split), std::move(columns));
}

OperatorFactoryPtr MakeValuesFactory(std::vector<PagePtr> pages) {
  return std::make_shared<ValuesFactory>(std::move(pages));
}

OperatorFactoryPtr MakeExchangeFactory(ExchangeClient* client) {
  return std::make_shared<ExchangeFactory>(client);
}

OperatorFactoryPtr MakeLocalExchangeSourceFactory(LocalExchange* exchange) {
  return std::make_shared<LocalExchangeSourceFactory>(exchange);
}

OperatorFactoryPtr MakeFilterFactory(ExprPtr predicate) {
  return std::make_shared<FilterFactory>(std::move(predicate));
}

OperatorFactoryPtr MakeProjectFactory(std::vector<ExprPtr> exprs) {
  return std::make_shared<ProjectFactory>(std::move(exprs));
}

OperatorFactoryPtr MakeLookupJoinFactory(JoinBridge* bridge) {
  return std::make_shared<LookupJoinFactory>(bridge);
}

OperatorFactoryPtr MakePartialAggFactory(std::vector<int> group_by,
                                         std::vector<Aggregate> aggs,
                                         std::vector<DataType> input_types) {
  return std::make_shared<AggFactory>(true, std::move(group_by),
                                      std::move(aggs), std::move(input_types));
}

OperatorFactoryPtr MakeFinalAggFactory(std::vector<int> group_by,
                                       std::vector<Aggregate> aggs,
                                       std::vector<DataType> input_types) {
  return std::make_shared<AggFactory>(false, std::move(group_by),
                                      std::move(aggs), std::move(input_types));
}

OperatorFactoryPtr MakeTopNFactory(std::vector<SortKey> keys, int64_t limit,
                                   std::vector<DataType> input_types) {
  return std::make_shared<TopNFactory>(std::move(keys), limit,
                                       std::move(input_types));
}

OperatorFactoryPtr MakeLimitFactory(int64_t limit) {
  return std::make_shared<LimitFactory>(limit);
}

OperatorFactoryPtr MakeLocalExchangeSinkFactory(LocalExchange* exchange) {
  return std::make_shared<LocalExchangeSinkFactory>(exchange);
}

OperatorFactoryPtr MakeHashBuildFactory(JoinBridge* bridge) {
  return std::make_shared<HashBuildFactory>(bridge);
}

OperatorFactoryPtr MakeTaskOutputFactory(OutputBuffer* buffer) {
  return std::make_shared<TaskOutputFactory>(buffer);
}

}  // namespace accordion
