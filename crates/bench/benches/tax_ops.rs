//! X11: operator-pipeline cost of the TAX kernels whose signatures
//! transfer collection ownership (`dup_elim`, `aggregate`, `rename`,
//! …). Each iteration runs a full pipeline so intermediate collections
//! are consumed in place rather than deep-cloned between stages — the
//! shape the evaluator executes.

use microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tax::ops::aggregate::{aggregate, AggFunc, UpdateSpec};
use tax::ops::groupby::{groupby, BasisItem};
use tax::ops::project::ProjectItem;
use tax::ops::rename::rename_root;
use tax::ops::{dup_elim, project, select_db};
use tax::pattern::{Axis, PatternTree, Pred};
use tax::tags;
use timber_bench::build_db;

/// E1's author prefix: select every distinct author element.
fn bench_dupelim_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("tax_ops_dupelim");
    group.sample_size(10);
    for &articles in &[2_000usize, 8_000] {
        let db = build_db(articles, None, false);
        let store = db.store();
        let mut sp = PatternTree::with_root(Pred::tag("doc_root"));
        let author = sp.add_child(sp.root(), Axis::Descendant, Pred::tag("author"));
        group.bench_with_input(
            BenchmarkId::new("select_project_dupelim", articles),
            &articles,
            |b, _| {
                b.iter(|| {
                    let sel = select_db(store, &sp, &[author]).unwrap();
                    let proj = project(
                        store,
                        &sel,
                        &sp,
                        &[ProjectItem::shallow(sp.root()), ProjectItem::deep(author)],
                        true,
                    )
                    .unwrap();
                    std::hint::black_box(dup_elim(store, proj, &sp, author).unwrap().len())
                })
            },
        );
    }
    group.finish();
}

/// Grouping followed by a three-aggregate chain and a root rename —
/// every stage after GROUPBY consumes its input collection.
fn bench_aggregate_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("tax_ops_aggregate");
    group.sample_size(10);
    for &articles in &[2_000usize, 8_000] {
        let db = build_db(articles, None, false);
        let store = db.store();
        let mut sp = PatternTree::with_root(Pred::tag("doc_root"));
        let art = sp.add_child(sp.root(), Axis::Descendant, Pred::tag("article"));
        let sel = select_db(store, &sp, &[art]).unwrap();
        let input = project(store, &sel, &sp, &[ProjectItem::deep(art)], true).unwrap();
        let mut gp = PatternTree::with_root(Pred::tag("article"));
        let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(author)];
        let mut ap = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let sub = ap.add_child(ap.root(), Axis::Child, Pred::tag(tags::GROUP_SUBROOT));
        let member = ap.add_child(sub, Axis::Child, Pred::tag("article"));
        let year = ap.add_child(member, Axis::Child, Pred::tag("year"));
        group.bench_with_input(
            BenchmarkId::new("groupby_count_min_max_rename", articles),
            &articles,
            |b, _| {
                b.iter(|| {
                    let groups = groupby(store, &input, &gp, &basis, &[])
                        .unwrap()
                        .0
                        .into_trees();
                    let counted = aggregate(
                        store,
                        groups,
                        &ap,
                        AggFunc::Count,
                        member,
                        "pubcount",
                        UpdateSpec::AfterLastChild(0),
                    )
                    .unwrap();
                    let lo = aggregate(
                        store,
                        counted,
                        &ap,
                        AggFunc::Min,
                        year,
                        "first_year",
                        UpdateSpec::AfterLastChild(0),
                    )
                    .unwrap();
                    let hi = aggregate(
                        store,
                        lo,
                        &ap,
                        AggFunc::Max,
                        year,
                        "last_year",
                        UpdateSpec::AfterLastChild(0),
                    )
                    .unwrap();
                    std::hint::black_box(
                        rename_root(store.dict(), hi, "authorgroup").unwrap().len(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dupelim_pipeline, bench_aggregate_chain);
criterion_main!(benches);
