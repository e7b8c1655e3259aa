#include "server/query_registry.h"

#include <algorithm>

#include "query/spec_parser.h"
#include "util/string_util.h"

namespace punctsafe {
namespace server {

namespace {

// Query ids travel on protocol lines; keep them one clean token.
Status ValidateQueryId(const std::string& id) {
  if (id.empty()) {
    return Status::InvalidArgument("query id must be non-empty");
  }
  for (char c : id) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      return Status::InvalidArgument(
          StrCat("query id '", id, "' must not contain whitespace"));
    }
  }
  return Status::OK();
}

// Punctuation patterns must instantiate the stream's schema: matching
// arity, constants of the attribute's type.
Status ValidatePunctuation(const std::string& stream, const Schema& schema,
                           const Punctuation& p) {
  if (p.arity() != schema.num_attributes()) {
    return Status::InvalidArgument(
        StrCat("punctuation arity ", p.arity(), " != stream '", stream,
               "' arity ", schema.num_attributes()));
  }
  for (size_t i = 0; i < p.arity(); ++i) {
    const Pattern& pattern = p.pattern(i);
    if (pattern.is_wildcard()) continue;
    ValueType expect = schema.attribute(i).type;
    if (pattern.constant().type() != expect) {
      return Status::InvalidArgument(
          StrCat("punctuation constant ", pattern.constant().ToString(),
                 " at attribute '", schema.attribute(i).name, "' is not ",
                 ValueTypeToString(expect)));
    }
  }
  return Status::OK();
}

}  // namespace

Status QueryRegistry::CreateStream(const std::string& name, Schema schema) {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.Register(name, std::move(schema));
}

Result<RegistrationInfo> QueryRegistry::RegisterQuery(
    const std::string& id, const std::string& spec_text,
    std::optional<ExecutorConfig> config) {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_RETURN_IF_ERROR(ValidateQueryId(id));
  if (queries_.count(id) > 0) {
    return Status::AlreadyExists(
        StrCat("query '", id, "' is already registered"));
  }

  PUNCTSAFE_ASSIGN_OR_RETURN(ParsedSpec spec, ParseSpec(spec_text, catalog_));
  if (spec.catalog.size() != catalog_.size()) {
    return Status::InvalidArgument(
        "query specs must not declare streams — streams are shared state, "
        "create them first (CREATE STREAM)");
  }

  ExecutorConfig cfg = config.value_or(default_config_);
  cfg.keep_results = true;  // the registry owns result draining

  // Per-query admission: the server catalog plus the spec's schemes,
  // through the full QueryRegister pipeline (validation, safety check
  // with witness, plan safety, executor instantiation).
  QueryRegister reg(catalog_);
  for (const PunctuationScheme& scheme : spec.schemes.schemes()) {
    PUNCTSAFE_RETURN_IF_ERROR(reg.RegisterScheme(scheme));
  }
  PUNCTSAFE_ASSIGN_OR_RETURN(
      RegisteredQuery rq,
      reg.Register(spec.query_streams, spec.predicates, cfg));

  Entry entry;
  entry.schemes = spec.schemes;
  for (const SubjoinSpec& sub :
       EnumerateSubjoins(rq.query, spec.schemes, rq.shape)) {
    SubjoinSharing decision;
    decision.signature = sub.signature;
    decision.streams = sub.streams;
    decision.safe = sub.safe;
    if (sub.safe) {
      bool was_shared = false;
      entry.handles.push_back(sharing_.Acquire(sub, &was_shared));
      decision.shared_at_registration = was_shared;
    }
    decision.sharers = sharing_.Sharers(sub.signature);
    entry.subjoins.push_back(std::move(decision));
  }

  RegistrationInfo info;
  info.id = id;
  info.plan = rq.shape.ToString(rq.query);
  info.safety = rq.safety;
  info.subjoins = entry.subjoins;
  for (const SubjoinSharing& d : entry.subjoins) {
    if (d.safe && d.shared_at_registration) ++info.shared_subjoins;
  }

  entry.rq = std::move(rq);
  queries_.emplace(id, std::move(entry));
  return info;
}

Status QueryRegistry::UnregisterQuery(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("query '", id, "' is not registered"));
  }
  queries_.erase(it);  // releases the shared sub-join handles
  return Status::OK();
}

bool QueryRegistry::HasQuery(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_.count(id) > 0;
}

std::vector<std::string> QueryRegistry::QueryIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(queries_.size());
  for (const auto& [id, entry] : queries_) out.push_back(id);
  return out;
}

int64_t QueryRegistry::ResolveTimestamp(std::optional<int64_t> ts) {
  if (ts.has_value()) {
    clock_ = std::max(clock_, *ts);
    return *ts;
  }
  return ++clock_;
}

Status QueryRegistry::PushTuple(const std::string& stream, const Tuple& tuple,
                                std::optional<int64_t> ts) {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_ASSIGN_OR_RETURN(const Schema* schema, catalog_.Get(stream));
  PUNCTSAFE_RETURN_IF_ERROR(tuple.MatchesSchema(*schema));
  int64_t now = ResolveTimestamp(ts);
  for (auto& [id, entry] : queries_) {
    auto idx = entry.rq.query.StreamIndex(stream);
    if (!idx.has_value()) continue;
    if (entry.rq.is_parallel()) {
      entry.rq.parallel_executor->PushTuple(*idx, tuple, now);
    } else {
      entry.rq.executor->PushTuple(*idx, tuple, now);
    }
    ++entry.tuples_in;
  }
  return Status::OK();
}

Status QueryRegistry::PushPunctuation(const std::string& stream,
                                      const Punctuation& p,
                                      std::optional<int64_t> ts) {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_ASSIGN_OR_RETURN(const Schema* schema, catalog_.Get(stream));
  PUNCTSAFE_RETURN_IF_ERROR(ValidatePunctuation(stream, *schema, p));
  int64_t now = ResolveTimestamp(ts);
  for (auto& [id, entry] : queries_) {
    auto idx = entry.rq.query.StreamIndex(stream);
    if (!idx.has_value()) continue;
    if (entry.rq.is_parallel()) {
      entry.rq.parallel_executor->PushPunctuation(*idx, p, now);
    } else {
      entry.rq.executor->PushPunctuation(*idx, p, now);
    }
    ++entry.punctuations_in;
  }
  // Shared sub-join punctuation state advances once per shared store,
  // however many queries hold the handle.
  for (const SharedSubjoinHandle& shared : sharing_.StatesFor(stream)) {
    shared->AddPunctuation(stream, p, now);
  }
  return Status::OK();
}

Status QueryRegistry::DrainAll(std::optional<int64_t> ts) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = ts.value_or(clock_);
  clock_ = std::max(clock_, now);
  for (auto& [id, entry] : queries_) {
    if (entry.rq.is_parallel()) {
      PUNCTSAFE_RETURN_IF_ERROR(entry.rq.parallel_executor->Drain(now));
    } else {
      entry.rq.executor->FlushIngest();
      entry.rq.executor->SweepAll(now);
    }
  }
  return Status::OK();
}

Result<std::vector<Tuple>> QueryRegistry::TakeResults(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("query '", id, "' is not registered"));
  }
  if (it->second.rq.is_parallel()) {
    return it->second.rq.parallel_executor->TakeResults();
  }
  return it->second.rq.executor->TakeResults();
}

Result<std::vector<SubjoinSharing>> QueryRegistry::SharingFor(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("query '", id, "' is not registered"));
  }
  std::vector<SubjoinSharing> out = it->second.subjoins;
  for (SubjoinSharing& d : out) d.sharers = sharing_.Sharers(d.signature);
  return out;
}

std::vector<std::pair<std::string, std::string>> QueryRegistry::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> out;
  out.emplace_back("clock", StrCat(clock_));
  out.emplace_back("streams", StrCat(catalog_.size()));
  if (catalog_.size() > 0) out.emplace_back("catalog", catalog_.ToString());
  out.emplace_back("queries", StrCat(queries_.size()));
  for (const auto& [id, entry] : queries_) {
    uint64_t results = entry.rq.is_parallel()
                           ? entry.rq.parallel_executor->num_results()
                           : entry.rq.executor->num_results();
    size_t live = entry.rq.is_parallel()
                      ? entry.rq.parallel_executor->TotalLiveTuples()
                      : entry.rq.executor->TotalLiveTuples();
    size_t live_puncts =
        entry.rq.is_parallel()
            ? entry.rq.parallel_executor->TotalLivePunctuations()
            : entry.rq.executor->TotalLivePunctuations();
    out.emplace_back(
        StrCat("query.", id),
        StrCat("mode=", entry.rq.is_parallel() ? "parallel" : "serial",
               " tuples_in=", entry.tuples_in,
               " punctuations_in=", entry.punctuations_in,
               " results=", results, " live_tuples=", live,
               " live_punctuations=", live_puncts));
  }
  // Snapshot the shared states, then drop the snapshot's handles
  // before counting sharers: use_count must see only query-held
  // references, not our own temporaries.
  std::vector<std::pair<std::string, size_t>> shared;
  for (const SharedSubjoinHandle& s : sharing_.LiveStates()) {
    shared.emplace_back(s->spec().signature, s->TotalPunctuations());
  }
  out.emplace_back("shared_subjoins", StrCat(shared.size()));
  size_t i = 0;
  for (const auto& [signature, punctuations] : shared) {
    out.emplace_back(StrCat("subjoin.", i++),
                     StrCat("sharers=", sharing_.Sharers(signature),
                            " punctuations=", punctuations, " ", signature));
  }
  return out;
}

StreamCatalog QueryRegistry::CatalogSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_;
}

Result<Schema> QueryRegistry::SchemaFor(const std::string& stream) const {
  std::lock_guard<std::mutex> lock(mu_);
  PUNCTSAFE_ASSIGN_OR_RETURN(const Schema* schema, catalog_.Get(stream));
  return *schema;
}

int64_t QueryRegistry::clock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

}  // namespace server
}  // namespace punctsafe
