//! Known-bad fixture for the `metric-registry` pass's scope collection: a
//! scope name violating the dotted convention, and a scope whose
//! `<name>.micros` histogram clashes with a counter of that name.

// Decoy: scope("Decoy") in a comment is not a scope.

fn live(t: &Telemetry) {
    let _bad = t.scope("Parse"); // deny: convention
    let _ok = t.root("fixture.query"); // clean: histogram fixture.query.micros
    let _clash = t.scope("fixture.stage"); // deny: cross-type with the counter below
    t.counter("fixture.stage.micros").inc();
}
