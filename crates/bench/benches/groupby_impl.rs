//! X4: the grouping implementation choice of Sec. 5.3 — identifier
//! processing (populate only grouping/sorting values, keep members as
//! references) vs eager replication (materialize every member per
//! witness before grouping).

use microbench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tax::ops::groupby::{groupby, groupby_replicated, BasisItem, Direction, GroupOrder};
use tax::ops::project::ProjectItem;
use tax::ops::{project, select_db};
use tax::pattern::{Axis, PatternTree, Pred};
use tax::Collection;
use timber_bench::build_db;

fn article_collection(db: &timber::TimberDb) -> Collection {
    let store = db.store();
    let mut sp = PatternTree::with_root(Pred::tag("doc_root"));
    let art = sp.add_child(sp.root(), Axis::Descendant, Pred::tag("article"));
    let sel = select_db(store, &sp, &[art]).unwrap();
    project(store, &sel, &sp, &[ProjectItem::deep(art)], true).unwrap()
}

fn bench_groupby_impls(c: &mut Criterion) {
    let mut group = c.benchmark_group("groupby_impl");
    group.sample_size(10);
    for &articles in &[500usize, 2_000] {
        let db = build_db(articles, None, false);
        let input = article_collection(&db);
        let mut gp = PatternTree::with_root(Pred::tag("article"));
        let title = gp.add_child(gp.root(), Axis::Child, Pred::tag("title"));
        let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(author)];
        let ordering = [GroupOrder {
            label: title,
            direction: Direction::Descending,
        }];
        group.bench_with_input(
            BenchmarkId::new("identifier", articles),
            &articles,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        groupby(db.store(), &input, &gp, &basis, &ordering)
                            .unwrap()
                            .0
                            .len(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("replicated", articles),
            &articles,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        groupby_replicated(db.store(), &input, &gp, &basis, &ordering)
                            .unwrap()
                            .len(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_groupby_impls);
criterion_main!(benches);
