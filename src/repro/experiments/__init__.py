"""Experiment harnesses reproducing the paper's tables and figures.

:mod:`repro.experiments.figures` names every artifact of the evaluation
as seeded cells, reduces their results into rows and renders each
table from those rows; it runs the cells for ``repro figures``, over
the process pool of :mod:`repro.experiments.pool`.  The other modules
hold the runs and studies the cells call (see DESIGN.md §3 for the
full index):

* :mod:`repro.experiments.cases` — the scenario ids and BG-case names,
  importable without the simulator (request validation, the CLI).
* :mod:`repro.experiments.scenarios` — the four §2.2.1 scenario drivers
  plus the BG-case machinery (BG-null / BG-apps / BG-cputester /
  BG-memtester) behind Figures 1, 2(a), 8, 9, 10, Table 5 and §6.2.2.
* :mod:`repro.experiments.cpu_utilization` — Table 1.
* :mod:`repro.experiments.refault_analysis` — Figure 2(b).
* :mod:`repro.experiments.user_study` — Figure 3.
* :mod:`repro.experiments.page_categorization` — Figure 4 and §3.2.
* :mod:`repro.experiments.launch_study` — Figure 11 and §6.3.1.
* :mod:`repro.experiments.overhead` — §6.4.
* :mod:`repro.experiments.ablations` — the strawmen and the whitelist
  study behind the three ablations.
"""
