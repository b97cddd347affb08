// Fixture: partib-diag-rule-registered stays silent on registered ids and
// on rule ids that are not string literals (runtime-extended rules are a
// supported path; the static check only covers what it can see).  Linted
// as src/check/diagrule_silent.cpp.

// SILENT-NOT: warning:

void good_report(int rank) {
  report("qp.transition", "qp0", rank, "detail");
  report("check.lock_order", "runtime.shard", rank, "detail");
}

void good_assignment() {
  Diagnostic d;
  d.rule = "assert";
  diag_emit(d);
}

void dynamic_rule(const char* rule, int rank) {
  report(rule, "obj", rank, "registered at runtime");  // not checkable
}
