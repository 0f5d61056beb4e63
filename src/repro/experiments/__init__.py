"""Experiment harnesses reproducing the paper's tables and figures.

Each module maps to one or more artifacts of the evaluation (see
DESIGN.md §3 for the full index):

* :mod:`repro.experiments.cases` — the scenario ids and BG-case names,
  importable without the simulator (request validation, the CLI).
* :mod:`repro.experiments.scenarios` — the four §2.2.1 scenario drivers
  plus the BG-case machinery (BG-null / BG-apps / BG-cputester /
  BG-memtester) shared by Figures 1, 2, 8, 9, 10 and Table 5.
* :mod:`repro.experiments.cpu_utilization` — Table 1.
* :mod:`repro.experiments.frame_rate` — Figures 1, 8, 9.
* :mod:`repro.experiments.refault_analysis` — Figure 2.
* :mod:`repro.experiments.user_study` — Figure 3.
* :mod:`repro.experiments.page_categorization` — Figure 4.
* :mod:`repro.experiments.reclaim_study` — Figure 10, Table 5.
* :mod:`repro.experiments.io_cpu` — §6.2.2.
* :mod:`repro.experiments.launch_study` — Figure 11.
* :mod:`repro.experiments.overhead` — §6.4.
"""
